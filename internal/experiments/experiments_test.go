package experiments

import (
	"bytes"
	"io"
	"reflect"
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
	if len(a) != 5 || !reflect.DeepEqual(a, b) {
		t.Fatalf("selected %v, then %v", a, b)
	}
}

// TestSynthCellKey: a Table I cell is keyed by its program and its
// config. Two programs under one config and one program under two
// configs are separate cells; a repeated pair is the same cell.
func TestSynthCellKey(t *testing.T) {
	r := NewRunner(Options{})
	sps, err := r.synthPrograms(2)
	if err != nil {
		t.Fatal(err)
	}
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
// does: the bytes must match, and the seed selection and every cell
// must come from the store, so the warm render front-ends nothing:
// neither a candidate seed (vetting one front-ends it) nor a selected
// program.
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
	if got := coldCounts["diskcache.experiments.synthseeds.write"]; got != 1 {
		t.Errorf("cold render wrote %d seed selections, want 1", got)
	}
	if got := warmCounts["diskcache.experiments.synthseeds.hit"]; got != 1 {
		t.Errorf("warm render read %d seed selections, want 1", got)
	}
	if got := coldCounts["pipeline.frontend"]; got < int64(opts.SynthCount) {
		t.Errorf("cold render front-ended %d sources for %d programs", got, opts.SynthCount)
	}
	if got := warmCounts["pipeline.frontend"]; got != 0 {
		t.Errorf("warm render front-ended %d sources, want 0", got)
	}
}

// TestTable1SelectionFromStore: a store that holds Table I's seed
// selection but none of its cells (the cells of a selection under
// another trace budget, say) makes a fresh runner front-end each
// selected program at its first cell, concurrently from the cell set,
// and measure exactly what a run without a store does.
func TestTable1SelectionFromStore(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	opts := Options{SynthCount: 3, SampleEvery: 997}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	evalcache.SetDefaultDisk(nil)
	var cold bytes.Buffer
	if err := NewRunner(opts).Table1(&cold); err != nil {
		t.Fatal(err)
	}
	d, err := evalcache.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	evalcache.SetDefaultDisk(d)
	if _, err := NewRunner(opts).synthPrograms(opts.SynthCount); err != nil {
		t.Fatal(err)
	}
	snk := telemetry.NewSink()
	defer telemetry.Install(telemetry.Install(snk))
	var warm bytes.Buffer
	if err := NewRunner(opts).Table1(&warm); err != nil {
		t.Fatal(err)
	}
	if warm.String() != cold.String() {
		t.Fatalf("Table I from a stored selection differs from a storeless run:\n%s\nwant:\n%s", warm.String(), cold.String())
	}
	if hit, fe := snk.Counter("diskcache.experiments.synthseeds.hit"), snk.Counter("pipeline.frontend"); hit != 1 || fe != int64(opts.SynthCount) {
		t.Errorf("%d selection hits and %d front ends, want 1 and %d", hit, fe, opts.SynthCount)
	}
}

// TestSynthSelectionKey: every field of Table I's selection key reaches
// its store key, so a stored selection answers only the selection it
// was scanned for.
func TestSynthSelectionKey(t *testing.T) {
	d, err := evalcache.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	evalcache.SetDefaultDisk(d)
	const ns = "experiments.synthseeds"
	base := synthSelection{Count: 20}
	stored := evalcache.Cache[synthSelection, []int64]{Namespace: ns}
	stored.Do(base, func() ([]int64, error) { return []int64{1}, nil })
	computes := func(k synthSelection) bool {
		computed := false
		fresh := evalcache.Cache[synthSelection, []int64]{Namespace: ns}
		fresh.Do(k, func() ([]int64, error) { computed = true; return nil, nil })
		return computed
	}
	if computes(base) {
		t.Fatal("the stored selection was not read back")
	}
	for i := 0; i < reflect.TypeFor[synthSelection]().NumField(); i++ {
		k := base
		f := reflect.ValueOf(&k).Elem().Field(i)
		f.SetInt(f.Int() + 1)
		if !computes(k) {
			t.Errorf("changing %s leaves the store key unchanged", reflect.TypeFor[synthSelection]().Field(i).Name)
		}
	}
}
