// Paretofront: sweep standard levels and tuned Ox-dy configurations over
// debuggability (suite product metric) and performance (benchmark
// speedup), and print the Pareto front — the paper's Figure 2 in
// miniature.
package main

import (
	"fmt"
	"log"

	"debugtuner/internal/pipeline"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/suite"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/tuner"
)

func main() {
	// Debuggability axis: three suite programs. Performance axis: three
	// benchmarks. (cmd/experiments fig2 runs the full sets.)
	names := []string{"zlib", "wasm3", "libyaml"}
	var progs []*tuner.Program
	for _, name := range names {
		s, err := testsuite.Load(name, testsuite.CorpusOptions{Execs: 200})
		if err != nil {
			log.Fatal(err)
		}
		progs = append(progs, s.Program)
	}
	benches := []string{"505.mcf", "557.xz", "531.deepsjeng"}

	var cfgs []pipeline.Config
	for _, level := range pipeline.Levels(pipeline.GCC) {
		la, err := tuner.AnalyzeLevel(progs, pipeline.GCC, level)
		if err != nil {
			log.Fatal(err)
		}
		cfgs = append(cfgs, pipeline.MustConfig(pipeline.GCC, level))
		cfgs = append(cfgs, la.Configs([]int{3, 5})...)
	}
	// Each axis is one suite set: every point averages the same members.
	debug, err := suite.Evaluate(names, cfgs, func(s int, cfg pipeline.Config) (float64, error) {
		return progs[s].Product(cfg)
	})
	if err != nil {
		log.Fatal(err)
	}
	speed, err := suite.Evaluate(benches, cfgs, func(b int, cfg pipeline.Config) (float64, error) {
		return specsuite.OverO0(benches[b], cfg)
	})
	if err != nil {
		log.Fatal(err)
	}
	var points []tuner.Point
	for c, cfg := range cfgs {
		dbg, _ := suite.Mean(debug, c)
		spd, _ := suite.Mean(speed, c)
		points = append(points, tuner.Point{Label: cfg.Name(), Debug: dbg, Speedup: spd})
	}

	fmt.Printf("%-12s %10s %9s  %s\n", "config", "product", "speedup", "front?")
	for _, p := range points {
		mark := ""
		if tuner.OnFront(points, p.Label) {
			mark = "  *on front*"
		}
		fmt.Printf("%-12s %10.4f %8.2fx%s\n", p.Label, p.Debug, p.Speedup, mark)
	}
	front := tuner.ParetoFront(points)
	fmt.Printf("\nPareto front (%d of %d):", len(front), len(points))
	for _, p := range front {
		fmt.Printf(" %s", p.Label)
	}
	fmt.Println()
}
