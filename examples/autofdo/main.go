// Autofdo: the paper's case study in miniature — profile a benchmark
// binary by sampling, inspect how much of the profile survived the debug
// information, and feed it back into the compiler. Also shows the
// profiling-stage coupling: a debug-friendlier profiling build maps more
// samples.
package main

import (
	"fmt"
	"log"

	"debugtuner/internal/autofdo"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/specsuite"
)

func main() {
	const bench = "531.deepsjeng"
	ir0, err := specsuite.LoadIR(bench)
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1: build the profiling binary at O2 with
	// -fdebug-info-for-profiling, run the ref workload under sampling.
	profCfg := pipeline.MustConfig(pipeline.Clang, "O2", pipeline.WithProfiling())
	profBin := pipeline.Build(ir0, profCfg)
	prof, err := autofdo.Collect(profBin, "main", 997)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profile from %s: %d samples, %.1f%% mapped to lines, %d hot lines\n",
		profCfg.Name(), prof.Total, 100*prof.MappedFraction(), len(prof.HotLines(0.5)))

	// Stage 2: recompile with the profile and compare.
	plain, err := specsuite.RunBinary(bench,
		pipeline.Build(ir0, pipeline.MustConfig(pipeline.Clang, "O2")))
	if err != nil {
		log.Fatal(err)
	}
	fdo, err := specsuite.RunBinary(bench,
		pipeline.BuildFDO(ir0, pipeline.MustConfig(pipeline.Clang, "O2"), prof))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plain O2:   %d cycles\n", plain.Cycles)
	fmt.Printf("O2+AutoFDO: %d cycles (%.2f%% faster)\n",
		fdo.Cycles, 100*(float64(plain.Cycles)-float64(fdo.Cycles))/float64(fdo.Cycles))

	// The coupling: profile from a debug-friendlier O2-dy build.
	dyCfg := pipeline.MustConfig(pipeline.Clang, "O2",
		pipeline.WithProfiling(),
		pipeline.Disable("schedule-insns2", "machine-sink", "jump-threading"))
	dyProf, err := autofdo.Collect(pipeline.Build(ir0, dyCfg), "main", 997)
	if err != nil {
		log.Fatal(err)
	}
	dyFdo, err := specsuite.RunBinary(bench,
		pipeline.BuildFDO(ir0, pipeline.MustConfig(pipeline.Clang, "O2"), dyProf))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profile from %s: %.1f%% mapped (vs %.1f%%)\n",
		dyCfg.Name(), 100*dyProf.MappedFraction(), 100*prof.MappedFraction())
	fmt.Printf("O2+AutoFDO(d3 profile): %d cycles (%+.2f%% vs O2-profile AutoFDO)\n",
		dyFdo.Cycles, 100*(float64(fdo.Cycles)-float64(dyFdo.Cycles))/float64(dyFdo.Cycles))
}
