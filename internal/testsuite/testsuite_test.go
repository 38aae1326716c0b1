package testsuite

import (
	"reflect"
	"testing"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/ir"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/vm"
)

// quickOpts keeps suite loading fast in unit tests.
var quickOpts = CorpusOptions{Execs: 150, StepBudget: 1 << 17}

// TestAllProgramsCompile front-ends and builds every subject at every
// profile/level.
func TestAllProgramsCompile(t *testing.T) {
	for _, name := range Names {
		src, err := Source(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		info, err := pipeline.Frontend(name+".mc", src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(info.Harnesses) == 0 {
			t.Errorf("%s: no fuzz harnesses", name)
		}
		ir0, err := pipeline.BuildIR(info)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
			for _, l := range append([]string{"O0"}, pipeline.Levels(p)...) {
				bin := pipeline.Build(ir0, pipeline.MustConfig(p, l))
				if len(bin.Code) == 0 {
					t.Errorf("%s %s-%s: empty binary", name, p, l)
				}
			}
		}
	}
}

// TestDifferentialAcrossLevels runs each harness on fixed inputs at every
// level and compares outputs against the O0 interpreter — the suite-wide
// semantics check.
func TestDifferentialAcrossLevels(t *testing.T) {
	inputs := [][]int64{
		{},
		{0, 1, 2, 3, 4, 5, 6, 7},
		{'S', 'S', 'H', '-', '2', '\n', 8, 3, 20, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17},
		{'G', 'E', 'T', ' ', '/', 'a', ' ', 'H', '\n', 'C', ':', '1', '\n', '\r', '\n'},
		{73, 73, 42, 0, 8, 0, 0, 0, 2, 0, 1, 1, 1, 0, 0, 0, 99, 0, 0, 0},
		{255, 255, 255, 255, 0, 0, 0, 0, 128, 64, 32, 16, 8, 4, 2, 1},
		{10, 10, 10, 10, 10, 10, 10, 1, 2, 3, 1, 2, 3, 1, 2, 3},
	}
	for _, name := range Names {
		src, err := Source(name)
		if err != nil {
			t.Fatal(err)
		}
		info, err := pipeline.Frontend(name+".mc", src)
		if err != nil {
			t.Fatal(err)
		}
		ir0, err := pipeline.BuildIR(info)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range info.Harnesses {
			// Reference outputs from the IR interpreter.
			var want [][]int64
			for _, in := range inputs {
				it := ir.NewInterp(ir0, 1<<24)
				hd := it.NewArray(in)
				if _, err := it.Call(h, hd, int64(len(in))); err != nil {
					t.Fatalf("%s/%s: interp: %v", name, h, err)
				}
				want = append(want, it.Output())
			}
			for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
				for _, l := range pipeline.Levels(p) {
					bin := pipeline.Build(ir0, pipeline.MustConfig(p, l))
					for ii, in := range inputs {
						m := vm.New(bin)
						m.StepBudget = 1 << 24
						hd := m.NewArray(in)
						if _, err := m.Call(h, hd, int64(len(in))); err != nil {
							t.Fatalf("%s/%s %s-%s: %v", name, h, p, l, err)
						}
						if !reflect.DeepEqual(m.Output(), want[ii]) {
							t.Fatalf("%s/%s %s-%s input %d: got %v want %v",
								name, h, p, l, ii, m.Output(), want[ii])
						}
					}
				}
			}
		}
	}
}

// TestCorpusPipeline loads one subject through the full fuzz/cmin/cover
// pipeline and sanity-checks the statistics.
func TestCorpusPipeline(t *testing.T) {
	s, err := Load("zlib", quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Corpora) == 0 {
		t.Fatal("no corpora")
	}
	for _, hc := range s.Corpora {
		if hc.Queue < len(hc.Inputs) {
			t.Errorf("%s: final inputs (%d) exceed queue (%d)", hc.Harness, len(hc.Inputs), hc.Queue)
		}
		if len(hc.Inputs) == 0 {
			t.Errorf("%s: pruning removed every input", hc.Harness)
		}
		if hc.AfterCMin > hc.Queue {
			t.Errorf("%s: cmin grew the corpus", hc.Harness)
		}
	}
	st, err := s.ComputeStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SteppableLines == 0 || st.SteppedLines == 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.DebugCoveragePct <= 10 {
		t.Errorf("debug coverage %.1f%% suspiciously low", st.DebugCoveragePct)
	}
	if st.ReductionPct <= 0 {
		t.Errorf("no queue reduction: %+v", st)
	}
}

// TestSuiteDebugQualityShape loads three subjects and verifies the
// Table IV shape on them: products in (0,1), monotone non-increasing
// with gcc level.
func TestSuiteDebugQualityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("suite measurement is slow")
	}
	for _, name := range []string{"zlib", "libpng", "lighttpd"} {
		s, err := Load(name, quickOpts)
		if err != nil {
			t.Fatal(err)
		}
		var prev float64 = 2
		for _, l := range []string{"Og", "O1", "O2", "O3"} {
			m, err := s.Product(pipeline.MustConfig(pipeline.GCC, l))
			if err != nil {
				t.Fatal(err)
			}
			if m <= 0 || m >= 1 {
				t.Errorf("%s gcc-%s: product %v outside (0,1)", name, l, m)
			}
			if m > prev+0.03 {
				t.Errorf("%s gcc-%s: product %v rose sharply from %v", name, l, m, prev)
			}
			prev = m
		}
	}
}

// TestCorpusKey: Load keys a subject by its effective corpus options.
// Equal options share one subject, an explicit default shares the
// defaulted one, and each option that shapes the corpora loads a
// subject of its own.
func TestCorpusKey(t *testing.T) {
	load := func(o CorpusOptions) *Subject {
		t.Helper()
		s, err := Load("zlib", o)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	base := CorpusOptions{Execs: 20, StepBudget: 1 << 17, Seed: 1}
	s := load(base)
	if load(base) != s {
		t.Error("equal options loaded two subjects")
	}
	if load(CorpusOptions{Execs: 20, Seed: 1}) != load(CorpusOptions{Execs: 20, StepBudget: 1 << 19, Seed: 1}) {
		t.Error("the default step budget keys apart from an explicit one")
	}
	for _, o := range []CorpusOptions{
		{Execs: 21, StepBudget: 1 << 17, Seed: 1},
		{Execs: 20, StepBudget: 1<<17 + 1, Seed: 1},
		{Execs: 20, StepBudget: 1 << 17, Seed: 2},
	} {
		if load(o) == s {
			t.Errorf("options %+v share the subject of %+v", o, base)
		}
	}
}

// TestCorporaFromStore loads every subject cold into a store and
// computes its Table III row, forgets both, and does it again from a
// second handle of that store, as a warm process does. The stored
// corpora and rows must come back equal, and so must every level's cell
// key: an input vector that came back as [] where it was nil (or the
// reverse) and changed the key would make every warm tuner cell miss.
// The warm pass builds nothing: neither a fuzzing binary nor the O0
// binary that Table III's coverage traces.
func TestCorporaFromStore(t *testing.T) {
	opts := CorpusOptions{Execs: 40, StepBudget: 1 << 17, Seed: 3}
	dir := t.TempDir()
	loadAll := func() ([]*Subject, []Stats, *telemetry.Sink) {
		t.Helper()
		d, err := evalcache.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		evalcache.SetDefaultDisk(d)
		snk := telemetry.NewSink()
		defer telemetry.Install(telemetry.Install(snk))
		subjects, err := LoadAll(opts)
		if err != nil {
			t.Fatal(err)
		}
		stats := make([]Stats, len(subjects))
		for i, s := range subjects {
			if stats[i], err = s.ComputeStats(); err != nil {
				t.Fatal(err)
			}
		}
		return subjects, stats, snk
	}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	cold, coldStats, coldSnk := loadAll()
	subjects = evalcache.Cache[corpusKey, *Subject]{}
	corpora = evalcache.Cache[corpusKey, []HarnessCorpus]{Namespace: "testsuite.corpus"}
	coverages = evalcache.Cache[coverageKey, coverage]{Namespace: "testsuite.coverage"}
	warm, warmStats, warmSnk := loadAll()
	coldCounts, warmCounts := coldSnk.Counters(), warmSnk.Counters()

	n := int64(len(Names))
	for _, ns := range []string{"testsuite.corpus", "testsuite.coverage"} {
		if got := coldCounts["diskcache."+ns+".write"]; got != n {
			t.Errorf("cold load wrote %d %s records, want %d", got, ns, n)
		}
		if hit, miss := warmCounts["diskcache."+ns+".hit"], warmCounts["diskcache."+ns+".miss"]; hit != n || miss != 0 {
			t.Errorf("warm load: %d %s hits and %d misses, want %d and 0", hit, ns, miss, n)
		}
	}
	if !reflect.DeepEqual(warmStats, coldStats) {
		t.Errorf("Table III rows from the store %+v, want the cold %+v", warmStats, coldStats)
	}
	if coldSnk.SpanCount() == 0 {
		t.Error("the cold load counted no build spans; the check below sees nothing")
	}
	if got := warmSnk.SpanCount(); got != 0 {
		t.Errorf("the warm load ran %d build spans, want none", got)
	}
	for i, name := range Names {
		c, w := cold[i], warm[i]
		if w == c {
			t.Fatalf("%s: the warm load returned the forgotten subject", name)
		}
		if !reflect.DeepEqual(w.Corpora, c.Corpora) {
			t.Errorf("%s: corpora from the store differ from the cold ones", name)
		}
		for _, p := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
			for _, l := range append([]string{"O0"}, pipeline.Levels(p)...) {
				fp, _ := pipeline.MustConfig(p, l).Fingerprint()
				if wk, ck := w.CellKey(fp), c.CellKey(fp); wk != ck {
					t.Errorf("%s %s-%s: cell key %s from the store, %s cold", name, p, l, wk, ck)
				}
			}
		}
	}
}

// TestCoverageKey: every field of a coverage key reaches its store key,
// so a stored coverage answers only the corpus and budget it traced.
func TestCoverageKey(t *testing.T) {
	d, err := evalcache.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer evalcache.SetDefaultDisk(evalcache.DefaultDisk())
	evalcache.SetDefaultDisk(d)
	const ns = "testsuite.coverage"
	base := coverageKey{Name: "zlib", Src: 0x5eed, Execs: 120, StepBudget: 1 << 19, Seed: 1, Budget: 1 << 26}
	stored := evalcache.Cache[coverageKey, coverage]{Namespace: ns}
	stored.Do(base, func() (coverage, error) { return coverage{Steppable: 2, Stepped: 1}, nil })
	computes := func(k coverageKey) bool {
		computed := false
		fresh := evalcache.Cache[coverageKey, coverage]{Namespace: ns}
		fresh.Do(k, func() (coverage, error) { computed = true; return coverage{}, nil })
		return computed
	}
	if computes(base) {
		t.Fatal("the stored coverage was not read back")
	}
	typ := reflect.TypeFor[coverageKey]()
	for i := 0; i < typ.NumField(); i++ {
		k := base
		switch f := reflect.ValueOf(&k).Elem().Field(i); f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "'")
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		default:
			f.SetInt(f.Int() + 1)
		}
		if !computes(k) {
			t.Errorf("changing %s leaves the store key unchanged", typ.Field(i).Name)
		}
	}
}
