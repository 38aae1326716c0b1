package autofdo_test

import (
	"reflect"
	"testing"

	"debugtuner/internal/autofdo"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/tuner"
	"debugtuner/internal/vm"
)

const sampleEvery = 997 // prime, so sampling does not alias loop periods

func profileOf(t *testing.T, bench string, cfg pipeline.Config) *autofdo.Profile {
	t.Helper()
	cfg.ForProfiling = true
	ir0, err := specsuite.LoadIR(bench)
	if err != nil {
		t.Fatal(err)
	}
	bin := pipeline.Build(ir0, cfg)
	p, err := autofdo.Collect(bin, "main", sampleEvery)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCollectMapsSamples: profiles exist, and most samples map to lines.
func TestCollectMapsSamples(t *testing.T) {
	p := profileOf(t, "505.mcf", pipeline.MustConfig(pipeline.Clang, "O2"))
	if p.Total < 100 {
		t.Fatalf("too few samples: %d", p.Total)
	}
	if p.MappedFraction() < 0.3 {
		t.Fatalf("mapped fraction %.2f too low", p.MappedFraction())
	}
	if len(p.FuncSamples) == 0 {
		t.Fatal("no function attribution despite -fdebug-info-for-profiling")
	}
}

// TestDebugFriendlyProfilingMapsMore: an O2-dy profiling build must map
// at least as many samples as plain O2 — the mechanism behind Figure 3.
func TestDebugFriendlyProfilingMapsMore(t *testing.T) {
	base := profileOf(t, "505.mcf", pipeline.MustConfig(pipeline.Clang, "O2"))
	// Disable the three top debug-harmful clang passes (the O2-d3
	// analog without running the full ranking here).
	dy := profileOf(t, "505.mcf", pipeline.MustConfig(pipeline.Clang, "O2",
		pipeline.Disable("schedule-insns2", "machine-sink", "jump-threading")))
	// A small tolerance absorbs sampling-alignment noise: the claim is
	// about the trend, not every address.
	if dy.MappedFraction()+0.02 < base.MappedFraction() {
		t.Errorf("O2-d3 profile maps notably less (%.4f) than O2 (%.4f)",
			dy.MappedFraction(), base.MappedFraction())
	}
}

// TestFDOPreservesSemantics: an FDO-optimized binary must produce the
// same output.
func TestFDOPreservesSemantics(t *testing.T) {
	prof := profileOf(t, "531.deepsjeng", pipeline.MustConfig(pipeline.Clang, "O2"))
	ir0, err := specsuite.LoadIR("531.deepsjeng")
	if err != nil {
		t.Fatal(err)
	}
	plain := pipeline.Build(ir0, pipeline.MustConfig(pipeline.Clang, "O2"))
	fdo := pipeline.BuildFDO(ir0, pipeline.MustConfig(pipeline.Clang, "O2"), prof)
	run := func(bin *vm.Binary) []int64 {
		m := vm.New(bin)
		m.StepBudget = 1 << 33
		if _, err := m.Call("main"); err != nil {
			t.Fatal(err)
		}
		return m.Output()
	}
	if !reflect.DeepEqual(run(plain), run(fdo)) {
		t.Fatal("FDO build changed program output")
	}
}

// TestFDOHelpsOnAverage: across the suite, AutoFDO with O2 profiles must
// beat plain O2 on average (individual regressions are allowed — the
// paper observes them too).
func TestFDOHelpsOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	better, total := 0, 0
	var sumRatio float64
	for _, bench := range []string{"505.mcf", "531.deepsjeng", "557.xz", "500.perlbench"} {
		prof := profileOf(t, bench, pipeline.MustConfig(pipeline.Clang, "O2"))
		ir0, err := specsuite.LoadIR(bench)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := specsuite.RunBinary(bench,
			pipeline.Build(ir0, pipeline.MustConfig(pipeline.Clang, "O2")))
		if err != nil {
			t.Fatal(err)
		}
		fdo, err := specsuite.RunBinary(bench,
			pipeline.BuildFDO(ir0, pipeline.MustConfig(pipeline.Clang, "O2"), prof))
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(plain.Cycles) / float64(fdo.Cycles)
		t.Logf("%s: plain=%d fdo=%d (%.3fx)", bench, plain.Cycles, fdo.Cycles, ratio)
		sumRatio += ratio
		total++
		if fdo.Cycles <= plain.Cycles {
			better++
		}
	}
	if sumRatio/float64(total) < 0.99 {
		t.Errorf("AutoFDO average ratio %.3f hurts overall", sumRatio/float64(total))
	}
}

// TestProfileSteersTuning glues AutoFDO to DebugTuner: profiles gathered
// from a debug-friendlier profiling binary must not map fewer samples,
// using the actual tuner ranking to pick the disabled passes.
func TestProfileSteersTuning(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	src, err := specsuite.Source("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := tuner.LoadProgram("mcf", src, nil)
	if err != nil {
		t.Fatal(err)
	}
	la, err := tuner.AnalyzeLevel([]*tuner.Program{prog}, pipeline.Clang, "O2")
	if err != nil {
		t.Fatal(err)
	}
	cfg := la.Configs([]int{3})[0]
	base := profileOf(t, "505.mcf", pipeline.MustConfig(pipeline.Clang, "O2"))
	dy := profileOf(t, "505.mcf", cfg)
	// Per-benchmark mapped fractions are noisy (samples are weighted by
	// time, so one hot artificial-line loop can dominate); the paper's
	// claim is the aggregate trend, checked end to end by the Figure 3
	// harness. Here we only guard against a collapse.
	if dy.MappedFraction() < base.MappedFraction()-0.10 {
		t.Errorf("ranked O2-d3 profile mapping collapsed (%.4f vs %.4f)",
			dy.MappedFraction(), base.MappedFraction())
	}
}
