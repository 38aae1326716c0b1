package experiments

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/telemetry"
)

// quickRunner shares a tiny-scale runner across the tests.
var quickRunner = NewRunner(Options{
	SynthCount:  8,
	CorpusExecs: 120,
	SampleEvery: 997,
	Dy:          []int{3},
	SpecSubset:  []string{"531.deepsjeng"},
})

// TestEveryExperimentRuns smoke-tests all sixteen harnesses at minimum
// scale: each must complete and produce its header row.
func TestEveryExperimentRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	cases := map[string]struct {
		run  func(io.Writer) error
		want string
	}{
		"table1":  {quickRunner.Table1, "Table I"},
		"table2":  {quickRunner.Table2, "libpng"},
		"table3":  {quickRunner.Table3, "Table III"},
		"table4":  {quickRunner.Table4, "Table IV"},
		"table5":  {quickRunner.Table5, "Table V"},
		"table6":  {quickRunner.Table6, "Table VI"},
		"table7":  {quickRunner.Table7, "Table VII"},
		"fig2":    {quickRunner.Fig2, "Pareto"},
		"table8":  {quickRunner.Table8, "Table VIII"},
		"table9":  {quickRunner.Table9, "Table IX"},
		"table10": {quickRunner.Table10, "Table X"},
		"table11": {quickRunner.Table11, "Table XI"},
		"table12": {quickRunner.Table12, "Table XII"},
		"fig3":    {quickRunner.Fig3, "AutoFDO"},
		"table15": {quickRunner.Table15, "Table XV"},
		"fig4":    {quickRunner.Fig4, "Figure 4"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := c.run(&buf); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !strings.Contains(buf.String(), c.want) {
				t.Fatalf("%s output lacks %q:\n%s", name, c.want, buf.String())
			}
		})
	}
}

// TestRunnerCaching: a second analysis request must return the identical
// cached object.
func TestRunnerCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	a, err := quickRunner.Analysis(pipeline.GCC, "Og")
	if err != nil {
		t.Fatal(err)
	}
	b, err := quickRunner.Analysis(pipeline.GCC, "Og")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("analysis not cached")
	}
}

// TestLoadSynthDeterministic: the same options select the same corpus.
func TestLoadSynthDeterministic(t *testing.T) {
	a := loadSynth(5)
	b := loadSynth(5)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("loaded %d and %d programs", len(a), len(b))
	}
	for i := range a {
		if a[i].info.Program.File.Name != b[i].info.Program.File.Name {
			t.Fatal("different programs selected")
		}
	}
}

// TestSynthCellKey: a Table I cell is keyed by its program and its
// config. Two programs under one config and one program under two
// configs are separate cells; a repeated pair is the same cell.
func TestSynthCellKey(t *testing.T) {
	r := NewRunner(Options{})
	sps := loadSynth(2)
	o1, o2 := pipeline.MustConfig(pipeline.GCC, "O1"), pipeline.MustConfig(pipeline.GCC, "O2")
	for _, c := range []struct {
		sp  *synthProgram
		cfg pipeline.Config
	}{{sps[0], o1}, {sps[0], o2}, {sps[1], o1}, {sps[0], o1}} {
		if _, err := r.synthScores(c.sp, c.cfg); err != nil {
			t.Fatal(err)
		}
	}
	if n := r.synth.Len(); n != 3 {
		t.Fatalf("%d Table I cells, want 3", n)
	}
}

// TestDebugifyKey: every cell of a debugify matrix is stored under a
// key of its own, and a rerun reads every one of them back.
func TestDebugifyKey(t *testing.T) {
	dir := t.TempDir()
	_, rep, cold := debugifyOnStore(t, dir, nil, storeDebugifyOpts)
	if n := cold.Counter("diskcache.debugify.write"); n != int64(rep.Cells) {
		t.Fatalf("a cold run stored %d reports for %d cells", n, rep.Cells)
	}
	_, _, warm := debugifyOnStore(t, dir, nil, storeDebugifyOpts)
	if n := warm.Counter("diskcache.debugify.hit"); n != int64(rep.Cells) {
		t.Fatalf("a rerun read %d reports for %d cells", n, rep.Cells)
	}
}

// TestTable1FromStore renders Table I cold into a store, then again from
// a fresh runner on a second handle of that store, as a warm process
// does: the bytes must match, and every cell must come from the store.
func TestTable1FromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	dir := t.TempDir()
	opts := Options{SynthCount: 4, SampleEvery: 997}
	render := func() (string, map[string]int64) {
		t.Helper()
		d, err := evalcache.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		evalcache.SetDefaultDisk(d)
		snk := telemetry.NewSink()
		defer telemetry.Install(telemetry.Install(snk))
		var buf bytes.Buffer
		if err := NewRunner(opts).Table1(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), snk.Counters()
	}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	cold, coldCounts := render()
	warm, warmCounts := render()
	if warm != cold {
		t.Fatalf("Table I from the store differs from the cold render:\n%s\nwant:\n%s", warm, cold)
	}
	cells := int64(opts.SynthCount * len(levelsUnderTest()))
	if got := coldCounts["diskcache.experiments.synth.write"]; got != cells {
		t.Errorf("cold render wrote %d cells, want %d", got, cells)
	}
	if hit, miss := warmCounts["diskcache.experiments.synth.hit"], warmCounts["diskcache.experiments.synth.miss"]; hit != cells || miss != 0 {
		t.Errorf("warm render: %d hits and %d misses, want %d and 0", hit, miss, cells)
	}
}
