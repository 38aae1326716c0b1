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
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("loaded %d and %d programs", len(a), len(b))
	}
	for i := range a {
		if a[i].info.Program.File.Name != b[i].info.Program.File.Name {
			t.Fatal("different programs selected")
		}
	}
}

// TestSynthCellKey: equal inputs give equal keys, and changing any one
// declared input of a Table I cell changes its key.
func TestSynthCellKey(t *testing.T) {
	base := synthCell{Src: 0x5eed, Config: "fp", Budget: synthTraceBudget}
	if again := (synthCell{Src: 0x5eed, Config: "fp", Budget: synthTraceBudget}); again.key() != base.key() {
		t.Fatalf("equal inputs give keys %q and %q", base.key(), again.key())
	}
	for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
		c := base
		f := reflect.ValueOf(&c).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "'")
		case reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		default:
			t.Fatalf("field %s: no perturbation for kind %s", reflect.TypeOf(base).Field(i).Name, f.Kind())
		}
		if c.key() == base.key() {
			t.Errorf("changing %s leaves the key at %q", reflect.TypeOf(base).Field(i).Name, base.key())
		}
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
