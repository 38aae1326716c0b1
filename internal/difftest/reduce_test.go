package difftest

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// tenLines is a minimal multi-line failing input for budget tests.
func tenLines() []byte {
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		sb.WriteString("line\n")
	}
	return []byte(sb.String())
}

// TestReduceWithProbeBudget: the probe cap is honored exactly, and the
// reducer returns the best source found so far rather than the input.
func TestReduceWithProbeBudget(t *testing.T) {
	probes := 0
	fails := func(src []byte) bool {
		probes++
		// Any source containing at least one line "fails": fully
		// reducible, so an unbounded run would reach 1 line.
		return len(src) > 0
	}
	out := ReduceWith(tenLines(), fails, Budget{MaxProbes: 3})
	if probes != 3 {
		t.Fatalf("predicate probed %d times, budget was 3", probes)
	}
	inLines := len(strings.Split(strings.TrimSpace(string(tenLines())), "\n"))
	outLines := len(strings.Split(strings.TrimSpace(string(out)), "\n"))
	if outLines >= inLines {
		t.Fatalf("no progress under budget: %d -> %d lines", inLines, outLines)
	}
}

// TestReduceWithStallingPredicate is the satellite regression: a
// predicate that stalls on every probe must not hang the reduction —
// the wall budget unwinds the ddmin loops with the best-so-far result.
func TestReduceWithStallingPredicate(t *testing.T) {
	fails := func(src []byte) bool {
		time.Sleep(20 * time.Millisecond) // deliberately stalling probe
		return len(src) > 0
	}
	done := make(chan []byte, 1)
	go func() {
		done <- ReduceWith(tenLines(), fails, Budget{MaxWall: 60 * time.Millisecond})
	}()
	select {
	case out := <-done:
		if len(out) == 0 {
			t.Fatal("reduction returned empty source")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("reduction did not terminate under a wall budget")
	}
}

// TestReduceZeroBudgetUnbounded: the zero Budget reduces all the way,
// byte-identical to the historical unbounded Reduce.
func TestReduceZeroBudgetUnbounded(t *testing.T) {
	fails := func(src []byte) bool { return len(src) > 0 }
	a := Reduce(tenLines(), fails)
	b := ReduceWith(tenLines(), fails, Budget{})
	if string(a) != string(b) {
		t.Fatalf("Reduce and zero-budget ReduceWith disagree: %q vs %q", a, b)
	}
	if got := strings.TrimSpace(string(a)); got != "line" {
		t.Fatalf("unbounded reduction stopped early: %q", got)
	}
}

// TestFixtureNameCollision locks the WriteFixture disambiguation: two
// labels that sanitize to the same filename must produce distinct
// fixture names, and clean labels keep their historical spelling.
func TestFixtureNameCollision(t *testing.T) {
	a := FixtureName("synth-0001", "gcc-O2!licm")
	b := FixtureName("synth-0001", "gcc-O2@licm")
	if a == b {
		t.Fatalf("colliding labels share fixture name %q", a)
	}
	for _, n := range []string{a, b} {
		if !strings.HasPrefix(n, "synth-0001-gcc-O2_licm-") || !strings.HasSuffix(n, ".mc") {
			t.Fatalf("unexpected fixture name shape %q", n)
		}
	}
	if got := FixtureName("synth-0001", "gcc-O2"); got != "synth-0001-gcc-O2.mc" {
		t.Fatalf("clean label renamed: %q", got)
	}
}

// TestWriteFixtureNoSilentOverwrite writes two findings whose labels
// sanitize identically and checks both fixtures exist afterwards.
func TestWriteFixtureNoSilentOverwrite(t *testing.T) {
	dir := t.TempDir()
	f1 := Finding{Subject: "s", Config: "gcc-O2!dce", Kind: KindBehavior, Detail: "d1"}
	f2 := Finding{Subject: "s", Config: "gcc-O2@dce", Kind: KindBehavior, Detail: "d2"}
	p1, err := WriteFixture(dir, f1, []byte("one\n"))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := WriteFixture(dir, f2, []byte("two\n"))
	if err != nil {
		t.Fatal(err)
	}
	if p1 == p2 {
		t.Fatalf("second fixture overwrote the first at %q", p1)
	}
	for _, p := range []string{p1, p2} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("fixture missing: %v", err)
		}
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		var names []string
		for _, e := range ents {
			names = append(names, filepath.Base(e.Name()))
		}
		t.Fatalf("want 2 fixtures, got %v", names)
	}
}
