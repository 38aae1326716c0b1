package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/specsuite"
)

// chaosRunner measures fresh subjects: no other test here grows corpora
// of 24 execs. testsuite.Load memoizes subjects with their measurement
// caches, and a warm cache answers before the chaos layer runs.
var chaosRunner = NewRunner(Options{
	CorpusExecs: 24,
	SampleEvery: 997,
	Dy:          []int{3},
	SpecSubset:  []string{"505.mcf", "531.deepsjeng", "557.xz"},
})

// underChaos renders one experiment with deterministic fault injection
// (rate 0.08, seed 3) installed, and fails the test if it errors: a
// quarantined cell must leave a gap, not abort the table.
func underChaos(t *testing.T, run func(io.Writer) error) string {
	t.Helper()
	ex := resilience.NewExecutor(&resilience.Chaos{Rate: 0.08, Seed: 3})
	prev := resilience.Install(ex)
	var buf bytes.Buffer
	err := run(&buf)
	resilience.Install(prev)
	if err != nil {
		t.Fatalf("a quarantined cell aborted the table: %v", err)
	}
	if len(ex.Quarantined()) == 0 {
		t.Fatal("chaos quarantined nothing; the test exercises no policy")
	}
	return buf.String()
}

// leftOutIn returns the names on text's "QUARANTINED: n subject(s) [...]"
// line, or an empty set when there is none.
func leftOutIn(text string) map[string]bool {
	out := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "QUARANTINED: ") {
			continue
		}
		list := line[strings.Index(line, "[")+1 : strings.Index(line, "]")]
		for _, n := range strings.Split(list, ", ") {
			out[n] = true
		}
	}
	return out
}

// line returns text's line starting with prefix.
func line(t *testing.T, text, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	t.Fatalf("no line starting %q in:\n%s", prefix, text)
	return ""
}

// liveMean averages measure over the names not in dead, in order; ok is
// false when every name is dead.
func liveMean(t *testing.T, names []string, dead map[string]bool, measure func(string) (float64, error)) (float64, bool) {
	t.Helper()
	sum, n := 0.0, 0
	for _, name := range names {
		if dead[name] {
			continue
		}
		v, err := measure(name)
		if err != nil {
			t.Fatalf("live member %s: %v", name, err)
		}
		sum += v
		n++
	}
	return sum / float64(n), n > 0
}

// TestTable4ChaosAveragesLiveSubjects: under chaos Table IV completes,
// names the subjects it left out, prints QUAR only in their rows, and
// every column of its average row covers exactly the other subjects.
func TestTable4ChaosAveragesLiveSubjects(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	out := underChaos(t, chaosRunner.Table4)
	dead := leftOutIn(out)
	if len(dead) == 0 {
		t.Fatalf("Table IV names no left-out subject:\n%s", out)
	}
	subjects, err := chaosRunner.Suite()
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(subjects))
	product := map[string]func(pipeline.Config) (float64, error){}
	for i, s := range subjects {
		names[i] = s.Name
		product[s.Name] = s.Product
		row := line(t, out, fmt.Sprintf("%-10s |", s.Name))
		if strings.Contains(row, "QUAR") != dead[s.Name] {
			t.Errorf("row %q: QUAR must appear exactly in left-out subjects' rows", row)
		}
	}
	want := fmt.Sprintf("%-10s |", "average")
	for c, cfg := range levelsUnderTest() {
		if c == 4 {
			want += " |"
		}
		m, ok := liveMean(t, names, dead, func(n string) (float64, error) { return product[n](cfg) })
		if !ok {
			t.Fatal("no live subject")
		}
		want += fmt.Sprintf(" %5.2f", m)
	}
	if got := line(t, out, "average"); got != want+" |" {
		t.Errorf("average row\n got %q\nwant %q", got, want+" |")
	}
}

// TestFig2ChaosPointsShareSubjects: under chaos every Fig. 2 point of a
// profile averages the same live subjects and benchmarks, so the points
// stay on the plot instead of turning into QUAR gaps, and the figure
// names the members it left out.
func TestFig2ChaosPointsShareSubjects(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	out := underChaos(t, chaosRunner.Fig2)
	subjects, err := chaosRunner.Suite()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	product := map[string]func(pipeline.Config) (float64, error){}
	for _, s := range subjects {
		names = append(names, s.Name)
		product[s.Name] = s.Product
	}
	panels := strings.Split(out, "Figure 2 (")[1:]
	for i, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
		panel := panels[i]
		dead := leftOutIn(panel)
		if len(dead) == 0 {
			t.Errorf("%s panel names no left-out member", p)
		}
		cfgs, err := chaosRunner.figConfigs(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range cfgs {
			dbg, okD := liveMean(t, names, dead, func(n string) (float64, error) { return product[n](cfg) })
			spd, okS := liveMean(t, chaosRunner.specNames(), dead, func(b string) (float64, error) {
				return specsuite.OverO0(b, cfg)
			})
			got := line(t, panel, fmt.Sprintf("%-16s |", cfg.Name()))
			want := fmt.Sprintf("%-16s | %10.4f | %7.2fx", cfg.Name(), dbg, spd)
			if !okD || !okS {
				want = fmt.Sprintf("%-16s | %10s | %8s", cfg.Name(), "QUAR", "QUAR")
			}
			if !strings.HasPrefix(got, want) {
				t.Errorf("point\n got %q\nwant %q", got, want)
			}
		}
	}
}

// TestTable1ChaosLeavesOutPrograms: Table I's cells run under the
// resilience executor like every other table's, so under chaos the
// table completes, names the programs it left out, and its rows are
// the geometric means over the other programs.
func TestTable1ChaosLeavesOutPrograms(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(Options{SynthCount: 8})
	out := underChaos(t, r.Table1)
	dead := leftOutIn(out)
	if len(dead) == 0 {
		t.Fatalf("Table I names no left-out program:\n%s", out)
	}
	progs, err := r.synthPrograms(r.Opts.SynthCount)
	if err != nil {
		t.Fatal(err)
	}
	gccO1 := pipeline.MustConfig(pipeline.GCC, "O1")
	var live []float64
	for _, sp := range progs {
		if dead[synthName(sp.seed)] {
			continue
		}
		ms, err := r.synthScores(sp, gccO1)
		if err != nil {
			t.Fatalf("live program %s: %v", synthName(sp.seed), err)
		}
		live = append(live, ms.Hybrid.Product)
	}
	if len(live) == 0 {
		t.Fatal("no live program")
	}
	row := line(t, out, fmt.Sprintf("%-6s %-4s |", "gcc", "O1"))
	if want := fmt.Sprintf("%8.4f", geo(live)); !strings.HasSuffix(row, want) {
		t.Errorf("gcc O1 row %q: hybrid product is not the live programs' geomean %s", row, want)
	}
}

// TestTable1NoLiveProgram: with every cell quarantined no program is
// live, and every Table I figure is a QUAR gap, not a mean over
// nothing.
func TestTable1NoLiveProgram(t *testing.T) {
	r := NewRunner(Options{SynthCount: 2})
	defer resilience.Install(resilience.Install(resilience.NewExecutor(&resilience.Chaos{Rate: 1})))
	var buf bytes.Buffer
	if err := r.Table1(&buf); err != nil {
		t.Fatalf("a quarantined cell aborted the table: %v", err)
	}
	out := buf.String()
	if len(leftOutIn(out)) != 2 {
		t.Fatalf("Table I does not name both programs:\n%s", out)
	}
	rows := 0
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "gcc ") && !strings.HasPrefix(l, "clang ") {
			continue
		}
		rows++
		for _, f := range strings.Fields(strings.ReplaceAll(l, "|", " "))[2:] {
			if f != "QUAR" {
				t.Errorf("row %q has figure %s, want only QUAR gaps", l, f)
			}
		}
	}
	if want := 2 * len(levelsUnderTest()); rows != want {
		t.Errorf("%d rows, want %d", rows, want)
	}
	if !strings.Contains(out, "gcc-O1: QUAR") {
		t.Errorf("the gcc-O1 spread is not a gap:\n%s", out)
	}
}
