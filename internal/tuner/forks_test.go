package tuner

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/ir"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/workerpool"
)

// analyzeCold runs AnalyzeLevel at j workers on fresh programs with an
// empty effect cache, so every matrix cell builds through a fork set.
func analyzeCold(t *testing.T, j int, profile pipeline.Profile, level string) *LevelAnalysis {
	t.Helper()
	workerpool.SetWorkers(j)
	effectCache = evalcache.Cache[cellKey, PassEffect]{Namespace: "tuner.effect"}
	la, err := AnalyzeLevel(loadTunerProgs(t), profile, level)
	if err != nil {
		t.Fatal(err)
	}
	return la
}

// TestAnalyzeLevelForksAcrossWorkers: cells of one program share its
// fork set from several workers at once, and the analysis must equal
// the one-worker result. Run with -race (ci.sh does) this is the fork
// set's data-race check.
func TestAnalyzeLevelForksAcrossWorkers(t *testing.T) {
	defer workerpool.SetWorkers(0)
	serial := analyzeCold(t, 1, pipeline.GCC, "O2")
	parallel := analyzeCold(t, 4, pipeline.GCC, "O2")
	if !reflect.DeepEqual(serial, parallel) {
		t.Errorf("4-worker analysis differs from 1-worker:\n j1: %+v\n j4: %+v", serial, parallel)
	}
}

// TestForkSetPanicReachesEveryCell: a panic while building a program's
// fork set must reach every cell waiting on it as an error — quarantined
// by each cell's resilience wrapper, or returned without one — never as
// a nil fork set.
func TestForkSetPanicReachesEveryCell(t *testing.T) {
	defer workerpool.SetWorkers(0)
	// Without an executor the failed cells stay cached as errors.
	defer func() { effectCache = evalcache.Cache[cellKey, PassEffect]{Namespace: "tuner.effect"} }()
	defer func(f func(*ir.Program, pipeline.Config, []string) *pipeline.Forks) { newForks = f }(newForks)
	newForks = func(*ir.Program, pipeline.Config, []string) *pipeline.Forks {
		time.Sleep(10 * time.Millisecond) // let the program's other cells queue up
		panic("planted fork-set failure")
	}
	const want = "fork set: panic: planted fork-set failure"

	t.Run("quarantined", func(t *testing.T) {
		ex := resilience.NewExecutor(resilience.Policy{})
		defer resilience.Install(resilience.Install(ex))
		workerpool.SetWorkers(4)
		effectCache = evalcache.Cache[cellKey, PassEffect]{Namespace: "tuner.effect"}
		progs := loadTunerProgs(t)
		la, err := AnalyzeLevel(progs, pipeline.GCC, "O2")
		if err != nil {
			t.Fatal(err)
		}
		cells := len(progs) * len(pipeline.EnabledPasses(pipeline.GCC, "O2"))
		if la.QuarantinedCells != cells || len(la.QuarantinedPrograms) != 0 {
			t.Fatalf("quarantined %d cells and programs %v, want all %d cells",
				la.QuarantinedCells, la.QuarantinedPrograms, cells)
		}
		q := ex.Quarantined()
		if len(q) != cells {
			t.Fatalf("%d quarantine records, want %d", len(q), cells)
		}
		for _, ce := range q {
			if !strings.Contains(ce.Error(), want) {
				t.Errorf("cell %s failed with %v, want the fork-set panic", ce.Key, ce.Err)
			}
		}
	})
	t.Run("unwrapped", func(t *testing.T) {
		workerpool.SetWorkers(4)
		effectCache = evalcache.Cache[cellKey, PassEffect]{Namespace: "tuner.effect"}
		_, err := AnalyzeLevel(loadTunerProgs(t), pipeline.GCC, "O2")
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("AnalyzeLevel error = %v, want the fork-set panic", err)
		}
	})
}
