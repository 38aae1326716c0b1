package tuner

import (
	"reflect"
	"sync"
	"testing"

	"debugtuner/internal/pipeline"
	"debugtuner/internal/workerpool"
)

// TestAnalyzeLevelDeterministicAcrossWorkerCounts is the engine's core
// contract: the ranking, reference products, and Table VII counts must
// be identical whether the (program × pass) matrix runs on one worker
// or eight.
func TestAnalyzeLevelDeterministicAcrossWorkerCounts(t *testing.T) {
	defer workerpool.SetWorkers(0)

	run := func(j int) *LevelAnalysis {
		t.Helper()
		workerpool.SetWorkers(j)
		// Fresh programs per run: the per-program measurement cache must
		// not let one run feed the other.
		progs := loadTunerProgs(t)
		la, err := AnalyzeLevel(progs, pipeline.GCC, "O2")
		if err != nil {
			t.Fatal(err)
		}
		return la
	}
	serial := run(1)
	parallel := run(8)

	if !reflect.DeepEqual(serial.RefProduct, parallel.RefProduct) {
		t.Errorf("RefProduct differs:\n j1: %v\n j8: %v", serial.RefProduct, parallel.RefProduct)
	}
	if !reflect.DeepEqual(serial.Ranking, parallel.Ranking) {
		t.Errorf("Ranking differs:\n j1: %+v\n j8: %+v", serial.Ranking, parallel.Ranking)
	}
	if serial.Positive != parallel.Positive || serial.Neutral != parallel.Neutral ||
		serial.Negative != parallel.Negative {
		t.Errorf("counts differ: j1 (%d,%d,%d) vs j8 (%d,%d,%d)",
			serial.Positive, serial.Neutral, serial.Negative,
			parallel.Positive, parallel.Neutral, parallel.Negative)
	}
}

// TestAnalyzeLevelRace exercises the pool on a small suite; run with
// -race this is the engine's data-race check (ci.sh does).
func TestAnalyzeLevelRace(t *testing.T) {
	workerpool.SetWorkers(8)
	defer workerpool.SetWorkers(0)
	progs := loadTunerProgs(t)
	for _, lvl := range []string{"O1", "O2"} {
		if _, err := AnalyzeLevel(progs, pipeline.GCC, lvl); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := AnalyzeLevel(progs, pipeline.Clang, "O2"); err != nil {
		t.Fatal(err)
	}
}

// TestBuildDoesNotMutateSharedIR pins down the "builds are cloned from
// its IR" claim: concurrent builds under every profile/level must leave
// the program's O0 IR byte-identical, with no data race on shared
// symbol state.
func TestBuildDoesNotMutateSharedIR(t *testing.T) {
	progs := loadTunerProgs(t)
	for _, p := range progs {
		before := make([]string, len(p.IR0.Funcs))
		for i, f := range p.IR0.Funcs {
			before[i] = f.String()
		}

		var cfgs []pipeline.Config
		for _, prof := range []pipeline.Profile{pipeline.GCC, pipeline.Clang} {
			for _, l := range pipeline.Levels(prof) {
				cfgs = append(cfgs, pipeline.MustConfig(prof, l))
				cfgs = append(cfgs, pipeline.MustConfig(prof, l,
					pipeline.Disable("dce", "inline")))
			}
		}
		var wg sync.WaitGroup
		for _, cfg := range cfgs {
			wg.Add(1)
			go func(cfg pipeline.Config) {
				defer wg.Done()
				p.Build(cfg)
			}(cfg)
		}
		wg.Wait()

		for i, f := range p.IR0.Funcs {
			if got := f.String(); got != before[i] {
				t.Fatalf("%s: concurrent builds mutated IR0 func %s:\nbefore:\n%s\nafter:\n%s",
					p.Name, f.Name, before[i], got)
			}
		}
	}
}

// TestMeasureCachesByFingerprint checks the content-addressed cache:
// equal configurations written differently (map insertion order, same
// set) must share one entry, distinct sets must not collide even though
// Config.Name renders both as "-d2".
func TestMeasureCachesByFingerprint(t *testing.T) {
	progs := loadTunerProgs(t)
	p := progs[0]
	a := pipeline.MustConfig(pipeline.GCC, "O2", pipeline.Disable("dce", "dse"))
	b := pipeline.MustConfig(pipeline.GCC, "O2", pipeline.Disable("dse", "dce"))
	c := pipeline.MustConfig(pipeline.GCC, "O2", pipeline.Disable("gvn", "tree-ch"))

	ma, err := p.Measure(a)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.scores.Len(); n != 1 {
		t.Fatalf("cache has %d entries after one measurement, want 1", n)
	}
	mb, err := p.Measure(b)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.scores.Len(); n != 1 {
		t.Fatalf("equivalent config missed the cache: %d entries", n)
	}
	if !reflect.DeepEqual(ma, mb) {
		t.Fatalf("equivalent configs measured differently: %+v vs %+v", ma, mb)
	}
	if _, err := p.Measure(c); err != nil {
		t.Fatal(err)
	}
	if n := p.scores.Len(); n != 2 {
		t.Fatalf("distinct disabled sets collided: %d entries, want 2", n)
	}
}
