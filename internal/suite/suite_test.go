package suite

import (
	"errors"
	"reflect"
	"testing"

	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/workerpool"
)

// cycles are canned cycle counts per subject and level: a fake speedup
// measurement divides the O0 count by the config's.
var cycles = map[string]map[string]int64{
	"a": {"O0": 100, "O1": 50, "O2": 40},
	"b": {"O0": 300, "O1": 100, "O2": 75},
	"c": {"O0": 90, "O1": 45, "O2": 30},
}

var (
	names = []string{"a", "b", "c"}
	cfgs  = []pipeline.Config{
		pipeline.MustConfig(pipeline.GCC, "O1"),
		pipeline.MustConfig(pipeline.GCC, "O2"),
	}
)

// fake measures a speedup from the canned counts, failing the cells
// named in fail (subject/level) with their error.
func fake(fail map[string]error) func(int, pipeline.Config) (float64, error) {
	return func(s int, cfg pipeline.Config) (float64, error) {
		if err := fail[names[s]+"/"+cfg.Level]; err != nil {
			return 0, err
		}
		c := cycles[names[s]]
		return float64(c["O0"]) / float64(c[cfg.Level]), nil
	}
}

func quarantined(key string) error {
	return &resilience.CellError{Key: key, Kind: resilience.KindPanic, Err: errors.New("injected")}
}

func means(t *testing.T, st *Set[float64]) []float64 {
	t.Helper()
	var out []float64
	for c := range cfgs {
		m, ok := Mean(st, c)
		if !ok {
			t.Fatalf("config %d is a gap", c)
		}
		out = append(out, m)
	}
	return out
}

// TestEvaluateRatiosAndMeans: cells hold each subject's ratio in suite
// order, means average them in suite order, and the set is identical at
// one and four workers.
func TestEvaluateRatiosAndMeans(t *testing.T) {
	defer workerpool.SetWorkers(0)
	var sets []*Set[float64]
	for _, j := range []int{1, 4} {
		workerpool.SetWorkers(j)
		st, err := Evaluate(names, cfgs, fake(nil))
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, st)
	}
	st := sets[0]
	if !reflect.DeepEqual(sets[0], sets[1]) {
		t.Fatalf("-j 1 and -j 4 sets differ:\n%+v\n%+v", sets[0], sets[1])
	}
	want := [][]float64{{2, 2.5}, {3, 4}, {2, 3}}
	for s := range names {
		for c := range cfgs {
			if got := st.Cells[s][c]; got.Quarantined || got.Value != want[s][c] {
				t.Errorf("cell %s/%s = %+v, want %v", names[s], cfgs[c].Level, got, want[s][c])
			}
		}
	}
	// Summed in suite order, as every table has always done.
	wantMeans := []float64{(2.0 + 3 + 2) / 3, (2.5 + 4 + 3) / 3}
	if got := means(t, st); !reflect.DeepEqual(got, wantMeans) {
		t.Errorf("means %v, want %v", got, wantMeans)
	}
	if st.Quarantined != nil {
		t.Errorf("fault-free set quarantined %v", st.Quarantined)
	}
}

// TestEvaluateQuarantineDropsSubject: one quarantined cell leaves its
// subject out of every mean of the set, not just its own config's, and
// names it; the subject's other cells keep their values.
func TestEvaluateQuarantineDropsSubject(t *testing.T) {
	st, err := Evaluate(names, cfgs, fake(map[string]error{"b/O2": quarantined("b/O2")}))
	if err != nil {
		t.Fatalf("a quarantined cell failed the set: %v", err)
	}
	if !reflect.DeepEqual(st.Quarantined, []string{"b"}) {
		t.Fatalf("quarantined %v, want [b]", st.Quarantined)
	}
	if st.Live(1) || !st.Live(0) || !st.Live(2) {
		t.Fatal("only b should be left out")
	}
	if c := st.Cells[1][1]; !c.Quarantined || c.Value != 0 {
		t.Errorf("quarantined cell = %+v", c)
	}
	if c := st.Cells[1][0]; c.Quarantined || c.Value != 3 {
		t.Errorf("b's live cell = %+v, want 3", c)
	}
	if got, want := means(t, st), []float64{(2.0 + 2) / 2, (2.5 + 3) / 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("means %v, want %v over a and c", got, want)
	}
}

// TestEvaluateReturnsOtherErrors: an error that is not a quarantine
// fails the evaluation.
func TestEvaluateReturnsOtherErrors(t *testing.T) {
	boom := errors.New("budget exhausted")
	st, err := Evaluate(names, cfgs, fake(map[string]error{"c/O1": boom}))
	if !errors.Is(err, boom) || st != nil {
		t.Fatalf("Evaluate = %v, %v; want the measurement error", st, err)
	}
}

// TestEvaluateNoLiveSubjectIsAGap: when every subject has a quarantined
// cell, the set still comes back, names them all, and every mean is a
// gap.
func TestEvaluateNoLiveSubjectIsAGap(t *testing.T) {
	fail := map[string]error{}
	for _, n := range names {
		fail[n+"/O1"] = quarantined(n)
	}
	st, err := Evaluate(names, cfgs, fake(fail))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Quarantined, names) {
		t.Fatalf("quarantined %v, want %v", st.Quarantined, names)
	}
	for c := range cfgs {
		if m, ok := Mean(st, c); ok {
			t.Errorf("config %d mean %v, want a gap", c, m)
		}
	}
}
