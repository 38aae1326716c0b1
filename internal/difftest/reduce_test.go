package difftest

import (
	"strings"
	"testing"
)

// tenLines is a minimal multi-line failing input for budget tests.
func tenLines() []byte {
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		sb.WriteString("line\n")
	}
	return []byte(sb.String())
}

// TestReduceProbeBudget: the probe cap is honored exactly, and the
// reducer returns the best source found so far rather than the input.
func TestReduceProbeBudget(t *testing.T) {
	probes := 0
	fails := func(src []byte) bool {
		probes++
		// Any source containing at least one line "fails": fully
		// reducible, so an unbounded run would reach 1 line.
		return len(src) > 0
	}
	out := Reduce(tenLines(), fails, 3)
	if probes != 3 {
		t.Fatalf("predicate probed %d times, budget was 3", probes)
	}
	inLines := len(strings.Split(strings.TrimSpace(string(tenLines())), "\n"))
	outLines := len(strings.Split(strings.TrimSpace(string(out)), "\n"))
	if outLines >= inLines {
		t.Fatalf("no progress under budget: %d -> %d lines", inLines, outLines)
	}
}

// TestReduceZeroBudgetUnbounded: a zero probe cap reduces all the way.
func TestReduceZeroBudgetUnbounded(t *testing.T) {
	fails := func(src []byte) bool { return len(src) > 0 }
	if got := strings.TrimSpace(string(Reduce(tenLines(), fails, 0))); got != "line" {
		t.Fatalf("unbounded reduction stopped early: %q", got)
	}
}

// TestFixtureNameCollision locks the FixtureName disambiguation: two
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
