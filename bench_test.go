// Benchmarks regenerating the paper's evaluation, one per table and
// figure, plus micro-benchmarks of the substrate. Run with:
//
//	go test -bench=. -benchmem
//
// The table benchmarks use reduced scales (see experiments.Options); the
// cmd/experiments binary regenerates the full versions.
package debugtuner_test

import (
	"io"
	"testing"

	"debugtuner/internal/autofdo"
	"debugtuner/internal/debugger"
	"debugtuner/internal/experiments"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/synth"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/tuner"
	"debugtuner/internal/vm"
	"debugtuner/internal/workerpool"
)

// benchOpts are one-notch-reduced scales so a full -bench=. run stays in
// the minutes range.
var benchOpts = experiments.Options{
	SynthCount:  30,
	CorpusExecs: 200,
	SampleEvery: 997,
	Dy:          []int{3, 5},
	SpecSubset:  []string{"505.mcf", "531.deepsjeng", "557.xz"},
}

// sharedRunner caches suite loading and pass analyses across benchmarks.
var sharedRunner = experiments.NewRunner(benchOpts)

func benchExperiment(b *testing.B, run func(io.Writer) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := run(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- One benchmark per table and figure ----

func BenchmarkTable1MethodsOnSynthetic(b *testing.B) { benchExperiment(b, sharedRunner.Table1) }
func BenchmarkTable2Libpng(b *testing.B)             { benchExperiment(b, sharedRunner.Table2) }
func BenchmarkTable3SuiteStats(b *testing.B)         { benchExperiment(b, sharedRunner.Table3) }
func BenchmarkTable4SuiteQuality(b *testing.B)       { benchExperiment(b, sharedRunner.Table4) }
func BenchmarkTable5GccRanking(b *testing.B)         { benchExperiment(b, sharedRunner.Table5) }
func BenchmarkTable6ClangRanking(b *testing.B)       { benchExperiment(b, sharedRunner.Table6) }
func BenchmarkTable7PassCounts(b *testing.B)         { benchExperiment(b, sharedRunner.Table7) }
func BenchmarkFig2ParetoFront(b *testing.B)          { benchExperiment(b, sharedRunner.Fig2) }
func BenchmarkTable8ConfigDeltas(b *testing.B)       { benchExperiment(b, sharedRunner.Table8) }
func BenchmarkTable9GccPerProgram(b *testing.B)      { benchExperiment(b, sharedRunner.Table9) }
func BenchmarkTable10ClangPerProgram(b *testing.B)   { benchExperiment(b, sharedRunner.Table10) }
func BenchmarkTable11SpecSpeedups(b *testing.B)      { benchExperiment(b, sharedRunner.Table11) }
func BenchmarkTable12SpecRelative(b *testing.B)      { benchExperiment(b, sharedRunner.Table12) }
func BenchmarkFig3AutoFDO(b *testing.B)              { benchExperiment(b, sharedRunner.Fig3) }
func BenchmarkTable15AutoFDOFull(b *testing.B)       { benchExperiment(b, sharedRunner.Table15) }
func BenchmarkFig4AutoFDOLargeWorkload(b *testing.B) { benchExperiment(b, sharedRunner.Fig4) }

// ---- Evaluation-engine parallelism ----

// benchAnalyzeLevel measures the (program × pass) build/trace matrix of
// one level analysis at a fixed worker-pool size.
func benchAnalyzeLevel(b *testing.B, workers int) {
	b.Helper()
	subjects, err := testsuite.LoadAll(testsuite.CorpusOptions{Execs: benchOpts.CorpusExecs})
	if err != nil {
		b.Fatal(err)
	}
	progs := testsuite.Programs(subjects)
	workerpool.SetWorkers(workers)
	defer workerpool.SetWorkers(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tuner.AnalyzeLevel(progs, pipeline.GCC, "O1"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeLevelJ1(b *testing.B) { benchAnalyzeLevel(b, 1) }
func BenchmarkAnalyzeLevelJ4(b *testing.B) { benchAnalyzeLevel(b, 4) }

// ---- Substrate micro-benchmarks ----

// BenchmarkCompileO2 measures a full gcc-O2 build of zlib.
func BenchmarkCompileO2(b *testing.B) {
	src, err := testsuite.Source("zlib")
	if err != nil {
		b.Fatal(err)
	}
	info, err := pipeline.Frontend("zlib.mc", src)
	if err != nil {
		b.Fatal(err)
	}
	ir0, err := pipeline.BuildIR(info)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pipeline.Build(ir0, pipeline.MustConfig(pipeline.GCC, "O2"))
	}
}

// BenchmarkVMExecution measures VM throughput on the mix quick-all's
// timing runs see: the 8 SPEC stand-ins' ref workloads at gcc O0 and
// gcc O2, one op running all 16.
func BenchmarkVMExecution(b *testing.B) {
	var bins []*vm.Binary
	for _, name := range specsuite.Names {
		ir0, err := specsuite.LoadIR(name)
		if err != nil {
			b.Fatal(err)
		}
		for _, lvl := range []string{"O0", "O2"} {
			bins = append(bins, pipeline.Build(ir0, pipeline.MustConfig(pipeline.GCC, lvl)))
		}
	}
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		for _, bin := range bins {
			m := vm.New(bin)
			m.StepBudget = 1 << 33
			if _, err := m.Call("main"); err != nil {
				b.Fatal(err)
			}
			steps += m.Steps
		}
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	b.ReportMetric(float64(steps)/b.Elapsed().Seconds(), "steps/s")
}

// BenchmarkDebugTrace measures a full temporary-breakpoint session.
func BenchmarkDebugTrace(b *testing.B) {
	src, err := testsuite.Source("libyaml")
	if err != nil {
		b.Fatal(err)
	}
	bin, _, err := pipeline.CompileSource("libyaml.mc", src,
		pipeline.MustConfig(pipeline.GCC, "O1"))
	if err != nil {
		b.Fatal(err)
	}
	sess, err := debugger.NewSession(bin)
	if err != nil {
		b.Fatal(err)
	}
	inputs := [][]int64{{'k', ':', ' ', 'v', '\n', ' ', ' ', 'a', ':', 'b', '\n'}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Trace("fuzz_parse", inputs, 1<<22); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProfileCollection measures AutoFDO sampling overhead.
func BenchmarkProfileCollection(b *testing.B) {
	ir0, err := specsuite.LoadIR("557.xz")
	if err != nil {
		b.Fatal(err)
	}
	bin := pipeline.Build(ir0,
		pipeline.MustConfig(pipeline.Clang, "O2", pipeline.WithProfiling()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := autofdo.Collect(bin, "main", 997); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthGeneration measures the Csmith-substitute generator.
func BenchmarkSynthGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = synth.Generate(int64(i), synth.DefaultOptions())
	}
}
