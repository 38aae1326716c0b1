// Command debugtuner runs the end-to-end DebugTuner workflow (§III):
// load the test suite, build the per-pass disable matrix, rank the
// passes, construct Ox-dy configurations, and report the debuggability /
// performance trade-off.
//
// Usage:
//
//	debugtuner [flags]
//
//	-compiler gcc|clang   profile to tune (default gcc)
//	-level O1|O2|...      level to tune (default O2)
//	-dy 3,5,7,9           configuration sizes
//	-top 10               ranking rows to print
//	-perf                 also measure SPEC speedups per configuration
//
// plus the shared runtime flags (-j, -cachedir, -trace, -metrics,
// -chaos, -cell-timeout, -retries) of internal/options. The tune result is computed by the same function as
// tunerd's /v1/tune (serve.TunePrograms) and rendered from the same
// internal/api structs, so CLI output and service responses cannot
// drift. Every mean, -perf speedups and -greedy steps included, comes
// from suite.Evaluate: a subject or benchmark with a quarantined
// measurement is named and left out of the means, and the run exits 3.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"debugtuner/internal/api"
	"debugtuner/internal/options"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/serve"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/suite"
	"debugtuner/internal/testsuite"
)

func main() {
	compiler := flag.String("compiler", "gcc", "profile to tune")
	level := flag.String("level", "O2", "optimization level to tune")
	dyArg := flag.String("dy", "3,5,7,9", "Ox-dy sizes, comma separated")
	top := flag.Int("top", 10, "ranking rows to print")
	perf := flag.Bool("perf", false, "measure SPEC speedups per configuration")
	execs := flag.Int("execs", 400, "fuzzing executions per harness")
	greedy := flag.Int("greedy", 0, "also run a greedy subset search up to N passes")
	shared := options.Install(flag.CommandLine)
	flag.Parse()
	rt, err := shared.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, "debugtuner:", err)
		if options.IsUsage(err) {
			os.Exit(2)
		}
		os.Exit(1)
	}
	// fail is a closure so every os.Exit stays lexically inside main —
	// the lint exit-owner rule's single-owner contract.
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "debugtuner:", err)
		os.Exit(1)
	}

	profile := pipeline.Profile(*compiler)
	var dys []int
	for _, s := range strings.Split(*dyArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fail(err)
		}
		dys = append(dys, n)
	}

	fmt.Printf("loading test suite (%d programs, %d execs per harness)...\n",
		len(testsuite.Names), *execs)
	subjects, err := testsuite.LoadAll(testsuite.CorpusOptions{Execs: *execs})
	if err != nil {
		fail(err)
	}
	progs := testsuite.Programs(subjects)

	fmt.Printf("analyzing %s-%s: one rebuild per pass per program...\n", profile, *level)
	res, la, err := serve.TunePrograms(progs, profile, *level, dys)
	if err != nil {
		fail(err)
	}
	if *perf {
		// One set over the reference and its Ox-dy family: a benchmark
		// with a quarantined speedup is named and left out of every mean,
		// and a set with no live benchmark prints no speedups.
		cfgs := append([]pipeline.Config{pipeline.MustConfig(profile, *level)}, la.Configs(dys)...)
		spd, err := suite.Evaluate(specsuite.Names, cfgs, func(b int, cfg pipeline.Config) (float64, error) {
			return specsuite.OverO0(specsuite.Names[b], cfg)
		})
		if err != nil {
			fail(err)
		}
		for c := range cfgs {
			if m, ok := suite.Mean(spd, c); !ok {
				continue
			} else if c == 0 {
				res.Reference.Speedup = &m
			} else {
				res.Configs[c-1].Speedup = &m
			}
		}
		res.QuarantinedSubjects = append(res.QuarantinedSubjects, spd.Quarantined...)
	}
	api.RenderTuneResult(os.Stdout, res, *top)

	if *greedy > 0 {
		fmt.Printf("\ngreedy subset search (<= %d passes)\n", *greedy)
		steps, gcfg, err := la.GreedySelect(progs, *greedy, 0.0005)
		if err != nil {
			fail(err)
		}
		for i, s := range steps {
			fmt.Printf("%2d. disable %-26s -> product %.4f\n", i+1, s.Pass, s.Product)
			if len(s.Quarantined) > 0 {
				fmt.Printf("    QUARANTINED: %d subject(s) [%s] left out of this step\n",
					len(s.Quarantined), strings.Join(s.Quarantined, ", "))
			}
		}
		fmt.Printf("final: %s disabling %s\n", gcfg.Name(),
			strings.Join(api.SortedNames(gcfg.Disabled), ", "))
	}

	code, err := rt.Finish(os.Stdout)
	if err != nil {
		fail(err)
	}
	os.Exit(code)
}
