// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [flags] [table1 table2 table3 table4 table5 table6 table7
//	                     fig2 table8 table9 table10 table11 table12
//	                     fig3 table15 fig4 passreport | all]
//
// Flags scale the evaluation; the defaults finish in minutes. Outputs are
// plain-text tables matching the paper's rows.
//
// passreport (not part of "all": its wall-clock column is
// nondeterministic) prints the per-pass debug-damage ledger for the
// -profile/-level build of the test suite. -trace and -metrics write a
// Chrome trace-event file and a JSON telemetry summary for any run;
// stdout stays byte-identical whether or not telemetry is enabled.
//
// difftest (not part of "all": it is a correctness gate, not a paper
// table) cross-checks -seeds synthetic programs and the whole test suite
// across the -configs matrix and reports behavior mismatches and
// debug-info invariant violations; see internal/difftest.
//
// debugify (not part of "all": it is the static verification gate)
// runs a debugify-style verified build of every (subject, config) cell
// — synthetic metadata injected, ir.Verify plus the staticdbg analyzer
// after every pass and back-end stage — and prints per-config survival
// and the per-pass static preservation scoreboard; violations exit 1.
// Scope with -dbg-subjects/-dbg-profile/-dbg-level; -dbg-verify=false
// builds the same matrix plainly (the bench baseline).
//
// hunt (not part of "all": it is the feedback-directed finding
// campaign, see internal/hunt) generates candidate programs biased by
// the telemetry damage ledger and past findings, runs each through the
// differential oracle and the verify-each analyzer, buckets findings by
// (rule, pass), ddmin-reduces one witness per new bucket, and maintains
// a regression corpus (-hunt-corpus) with a cross-run trend report, kept
// in the corpus as hunt-state.json.
// Scale with -hunt-seed/-hunt-epochs/-hunt-candidates/-hunt-configs;
// -hunt-plant rule@pass arms the planted-bug self-test. Findings are
// the campaign's product, not an error: a fruitful hunt exits 0.
//
// Every completed cell goes to the persistent evaluation store
// (-cachedir), so resuming an interrupted run means rerunning it on the
// same store: completed cells are read back and only the rest is
// computed, and the rerun prints the bytes an uninterrupted run would.
// SIGINT/SIGTERM stops difftest, debugify and hunt between units of
// work, and a table run before its next requested experiment: work in
// flight finishes into the store, the store is synced, and the run
// exits 4 — distinct from failure (1), usage (2), and quarantine gaps
// (3). A second signal kills the process the default way.
//
// Every evaluation cell runs once under the resilience executor of
// internal/resilience, with or without flags: a cell that panics or
// fails is quarantined rather than fatal. A run that completes with
// quarantined cells prints a QUARANTINED(n) report and exits 3. A
// result with a quarantine in it is never stored, so a rerun
// recomputes those cells. -chaos rate=R,seed=N injects deterministic
// faults into a fraction R of the cells, to exercise that path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"debugtuner/internal/difftest"
	"debugtuner/internal/experiments"
	"debugtuner/internal/hunt"
	"debugtuner/internal/metrics"
	"debugtuner/internal/options"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/testsuite"
)

// cli is the full experiments flag surface, registered on its own flag
// set so tests can parse argument lists without touching the process's.
type cli struct {
	fs   *flag.FlagSet
	opts experiments.Options

	quick       *bool
	timings     *bool
	prProfile   *string
	prLevel     *string
	dbgSubjects *string
	dbgProfile  *string
	dbgLevel    *string
	dbgVerify   *bool
	dtSeeds     *int
	dtConfigs   *string
	dtSuite     *bool
	cpuProfile  *string
	memProfile  *string
	shared      *options.Flags

	huntSeed         *int64
	huntEpochs       *int
	huntCandidates   *int
	huntConfigs      *string
	huntDenom        *string
	huntPlant        *string
	huntCorpus       *string
	huntReduceProbes *int

	// interrupt is cancelled by the first SIGINT/SIGTERM: difftest,
	// debugify and hunt stop between cells, no further experiment
	// starts, and the command exits ExitInterrupted.
	interrupt context.Context
}

func newCLI() *cli {
	c := &cli{fs: flag.NewFlagSet("experiments", flag.ExitOnError)}
	c.opts = experiments.DefaultOptions()
	c.fs.IntVar(&c.opts.SynthCount, "synth", c.opts.SynthCount,
		"synthetic programs for Table I (paper: 5000)")
	c.fs.IntVar(&c.opts.CorpusExecs, "execs", c.opts.CorpusExecs,
		"fuzzing executions per harness")
	c.fs.Int64Var(&c.opts.SampleEvery, "sample-every", c.opts.SampleEvery,
		"AutoFDO sampling period in cycles")
	c.quick = c.fs.Bool("quick", false,
		"shrink every knob for a fast smoke run")
	c.timings = c.fs.Bool("timings", false,
		"print per-experiment wall-clock to stderr (stdout stays byte-identical)")
	c.prProfile = c.fs.String("profile", "gcc",
		"compiler profile for the passreport experiment")
	c.prLevel = c.fs.String("level", "O2",
		"optimization level for the passreport experiment")
	c.dbgSubjects = c.fs.String("dbg-subjects", "",
		"debugify: comma list of test-suite subjects (default all)")
	c.dbgProfile = c.fs.String("dbg-profile", "",
		"debugify: restrict to one profile (gcc or clang; default both)")
	c.dbgLevel = c.fs.String("dbg-level", "",
		"debugify: restrict to one optimization level (default all)")
	c.dbgVerify = c.fs.Bool("dbg-verify", true,
		"debugify: run the verify-each analyzer (false = plain builds, the bench baseline)")
	c.dtSeeds = c.fs.Int("seeds", 50,
		"synthetic seeds for the difftest experiment")
	c.dtConfigs = c.fs.String("configs", "full",
		"difftest matrix: full, levels, or a comma list like gcc-O2,clang-O3*")
	c.dtSuite = c.fs.Bool("suite", true,
		"include the test-suite programs as difftest subjects")
	c.cpuProfile = c.fs.String("cpuprofile", "",
		"write a runtime/pprof CPU profile of the whole run to this file")
	c.memProfile = c.fs.String("memprofile", "",
		"write a runtime/pprof heap profile (after all experiments) to this file")
	hd := hunt.DefaultOptions()
	c.huntSeed = c.fs.Int64("hunt-seed", hd.Seed, "hunt: campaign seed")
	c.huntEpochs = c.fs.Int("hunt-epochs", hd.Epochs,
		"hunt: feedback epochs (buckets found in epoch e bias epoch e+1)")
	c.huntCandidates = c.fs.Int("hunt-candidates", hd.Candidates,
		"hunt: candidate programs per epoch")
	c.huntConfigs = c.fs.String("hunt-configs", hd.Spec,
		"hunt: configuration matrix; the first entry is the primary config")
	c.huntDenom = c.fs.String("hunt-denom", string(hd.Denom),
		"hunt: score denominator (stmt-lines, stepped-o0, or def-ranges)")
	c.huntPlant = c.fs.String("hunt-plant", "",
		"hunt: planted-bug drill, rule@pass (e.g. scope-nesting@dse)")
	c.huntCorpus = c.fs.String("hunt-corpus", "",
		"hunt: regression corpus directory; enables fixture and trend-state (hunt-state.json) commits")
	c.huntReduceProbes = c.fs.Int("hunt-reduce-probes", hd.ReduceProbes,
		"hunt: ddmin probe budget per witness reduction")
	c.shared = options.Install(c.fs)
	return c
}

// applyQuick shrinks the knobs the way the -quick flag promises. An
// explicitly set -synth or -execs keeps its value.
func (c *cli) applyQuick() {
	if !*c.quick {
		return
	}
	set := map[string]bool{}
	c.fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["synth"] {
		c.opts.SynthCount = 20
	}
	if !set["execs"] {
		c.opts.CorpusExecs = 120
	}
	c.opts.Dy = []int{3, 5}
	c.opts.SpecSubset = []string{"505.mcf", "531.deepsjeng", "557.xz"}
}

// Profiling state flushed by stopProfiles on every exit path.
var (
	cpuProfileFile *os.File
	memProfilePath string
)

// startProfiles begins the -cpuprofile/-memprofile captures.
func startProfiles(c *cli) error {
	if *c.cpuProfile != "" {
		f, err := os.Create(*c.cpuProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		cpuProfileFile = f
	}
	memProfilePath = *c.memProfile
	return nil
}

// stopProfiles finalizes the -cpuprofile and -memprofile outputs. It is
// safe to call when profiling was never started.
func stopProfiles() {
	if cpuProfileFile != nil {
		pprof.StopCPUProfile()
		cpuProfileFile.Close()
		cpuProfileFile = nil
	}
	if memProfilePath != "" {
		f, err := os.Create(memProfilePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
		}
		f.Close()
		memProfilePath = ""
	}
}

func main() {
	code := runMain(os.Args[1:])
	stopProfiles()
	os.Exit(code)
}

// runMain parses argv, executes the requested experiment set and
// finishes the runtime (store sync, quarantine report, telemetry
// export), returning the exit code.
func runMain(argv []string) int {
	c := newCLI()
	c.fs.Parse(argv)
	if err := startProfiles(c); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rt, err := c.shared.Build()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if options.IsUsage(err) {
			return 2
		}
		return 1
	}
	c.interrupt = options.NotifyInterrupt()
	c.applyQuick()
	want := c.fs.Args()
	r := experiments.NewRunner(c.opts)
	type exp struct {
		name string
		run  func(io.Writer) error
	}
	all := []exp{
		{"table1", r.Table1}, {"table2", r.Table2}, {"table3", r.Table3},
		{"table4", r.Table4}, {"table5", r.Table5}, {"table6", r.Table6},
		{"table7", r.Table7}, {"fig2", r.Fig2}, {"table8", r.Table8},
		{"table9", r.Table9}, {"table10", r.Table10},
		{"table11", r.Table11}, {"table12", r.Table12},
		{"fig3", r.Fig3}, {"table15", r.Table15}, {"fig4", r.Fig4},
	}
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = nil
		for _, e := range all {
			want = append(want, e.name)
		}
	}
	byName := map[string]exp{}
	for _, e := range all {
		byName[e.name] = e
	}
	// Deliberately absent from "all": the report's wall-ms column varies
	// run to run, and "all" output must stay byte-identical.
	byName["passreport"] = exp{"passreport", func(w io.Writer) error {
		return experiments.WritePassReport(w, pipeline.Profile(*c.prProfile), *c.prLevel)
	}}
	// Also absent from "all": difftest is a correctness gate. A run with
	// findings exits nonzero so CI can gate on it.
	byName["difftest"] = exp{"difftest", func(w io.Writer) error {
		dopts := difftest.Options{Spec: *c.dtConfigs, Interrupt: c.interrupt}
		for seed := int64(1); seed <= int64(*c.dtSeeds); seed++ {
			dopts.Seeds = append(dopts.Seeds, seed)
		}
		if *c.dtSuite {
			dopts.Testsuite = testsuite.Names
		}
		rep, err := difftest.Run(w, dopts)
		if err != nil {
			if options.IsInterrupted(err) {
				return options.ErrInterrupted
			}
			return err
		}
		// Quarantined cells are gaps, not verdicts — they surface through
		// the quarantine report and exit code 3, not as difftest failures.
		if rep.Mismatches+rep.Violations > 0 {
			return fmt.Errorf("%d behavior mismatches, %d invariant violations",
				rep.Mismatches, rep.Violations)
		}
		return nil
	}}
	// Also absent from "all": debugify is the static verification gate.
	// Violations and verify errors make it exit nonzero; quarantined
	// cells surface through the quarantine report and exit code 3.
	byName["debugify"] = exp{"debugify", func(w io.Writer) error {
		dopts := experiments.DefaultDebugifyOptions()
		dopts.Verify = *c.dbgVerify
		dopts.Interrupt = c.interrupt
		if *c.dbgSubjects != "" {
			dopts.Subjects = strings.Split(*c.dbgSubjects, ",")
		}
		if *c.dbgProfile != "" {
			dopts.Profiles = []pipeline.Profile{pipeline.Profile(*c.dbgProfile)}
		}
		if *c.dbgLevel != "" {
			dopts.Levels = []string{*c.dbgLevel}
		}
		rep, err := experiments.WriteDebugify(w, dopts)
		if err != nil {
			if options.IsInterrupted(err) {
				return options.ErrInterrupted
			}
			return err
		}
		if n := len(rep.Findings); n > 0 {
			return fmt.Errorf("%d static debug-info findings", n)
		}
		return nil
	}}
	// Also absent from "all": hunt is the feedback-directed finding
	// campaign. Findings are its product, not a failure — CI gates on
	// report bytes and new-bucket fixtures, so a fruitful campaign still
	// exits 0.
	byName["hunt"] = exp{"hunt", func(w io.Writer) error {
		hopts := hunt.DefaultOptions()
		hopts.Seed = *c.huntSeed
		hopts.Epochs = *c.huntEpochs
		hopts.Candidates = *c.huntCandidates
		hopts.Spec = *c.huntConfigs
		hopts.Denom = metrics.Denom(*c.huntDenom)
		hopts.Plant = *c.huntPlant
		hopts.CorpusDir = *c.huntCorpus
		hopts.ReduceProbes = *c.huntReduceProbes
		hopts.Interrupt = c.interrupt
		rep, err := hunt.Run(w, hopts)
		if err != nil {
			return err
		}
		if rep.Interrupted {
			return options.ErrInterrupted
		}
		return nil
	}}
	// interrupted syncs the store and prints the quarantine report, so a
	// rerun on the same -cachedir resumes from the work completed so far,
	// and returns the distinct interrupted exit code.
	interrupted := func(name string) int {
		fmt.Fprintf(os.Stderr, "%s: interrupted; rerun on the same -cachedir to resume\n", name)
		if _, ferr := rt.Finish(os.Stdout); ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			return 1
		}
		return options.ExitInterrupted
	}
	for _, name := range want {
		e, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			return 2
		}
		// A table does not read the interrupt: the signal takes effect
		// here, before the next experiment starts.
		if c.interrupt.Err() != nil {
			return interrupted(e.name)
		}
		fmt.Printf("==== %s ====\n", e.name)
		start := time.Now()
		if err := e.run(os.Stdout); err != nil {
			if errors.Is(err, options.ErrInterrupted) {
				return interrupted(e.name)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			return 1
		}
		if *c.timings {
			// Timing goes to stderr so stdout stays byte-identical
			// across worker counts.
			fmt.Fprintf(os.Stderr, "[%s: %.2fs]\n", e.name, time.Since(start).Seconds())
		}
		fmt.Println()
	}
	// The quarantine gap report prints after every requested table so the
	// run's losses are explicit; "completed with gaps" gets a distinct
	// exit code (3) CI can tell apart from a hard failure (1).
	exitCode, err := rt.Finish(os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return exitCode
}
