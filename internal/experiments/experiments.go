// Package experiments regenerates every table and figure of the paper's
// evaluation on the MiniC substrate. Each Table*/Fig* method prints the
// same rows or series the paper reports; EXPERIMENTS.md records the
// shape comparison against the original numbers.
//
// The Runner caches the expensive intermediates (the loaded test suite,
// per-level pass analyses, SPEC baselines) so one process can regenerate
// the whole evaluation.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"debugtuner/internal/dbgtrace"
	"debugtuner/internal/debugger"
	"debugtuner/internal/debuginfo"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/ir"
	"debugtuner/internal/metrics"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/sema"
	"debugtuner/internal/specsuite"
	"debugtuner/internal/suite"
	"debugtuner/internal/synth"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/tuner"
	"debugtuner/internal/workerpool"
)

// Options scales the evaluation. The defaults regenerate every shape in
// minutes; the paper-scale knobs are documented per field.
type Options struct {
	// SynthCount is the number of synthetic programs for Table I
	// (paper: 5000). Programs whose reference run exceeds the interpreter
	// budget are skipped deterministically.
	SynthCount int
	// CorpusExecs is the fuzzing budget per harness (§IV).
	CorpusExecs int
	// SampleEvery is the AutoFDO sampling period in cycles.
	SampleEvery int64
	// Dy lists the Ox-dy sizes to evaluate (paper: 3, 5, 7, 9).
	Dy []int
	// SpecSubset restricts performance runs to these benchmarks
	// (nil = all eight).
	SpecSubset []string
}

// DefaultOptions returns the laptop-scale defaults.
func DefaultOptions() Options {
	return Options{
		SynthCount:  120,
		CorpusExecs: 400,
		SampleEvery: 997,
		Dy:          []int{3, 5, 7, 9},
	}
}

// Runner executes and caches the evaluation: the per-level pass
// analyses, the AutoFDO measurements, Table I's seed selection and its
// cells. Each is an evalcache.Cache, so concurrent table generators
// asking for the same intermediate block on one computation instead of
// duplicating it; the AutoFDO measurements, the seed selection and the
// Table I cells are also kept in the process store. Suite averages are
// not memoized here: every table evaluates its (subject × config) set
// through suite.Evaluate, whose cells hit the measurement caches
// underneath (tuner.Program's scores, specsuite's cycle counts, the
// synth cells below).
type Runner struct {
	Opts Options

	analyses evalcache.Cache[analysisKey, *tuner.LevelAnalysis]
	fdo      evalcache.Cache[fdoKey, fdoResult]
	seeds    evalcache.Cache[synthSelection, []int64]
	synth    evalcache.Cache[synthCell, methodScores]
}

// analysisKey names one per-level pass analysis.
type analysisKey struct {
	Profile pipeline.Profile
	Level   string
}

// NewRunner creates a runner.
func NewRunner(opts Options) *Runner {
	return &Runner{
		Opts:  opts,
		fdo:   evalcache.Cache[fdoKey, fdoResult]{Namespace: "experiments.fdo"},
		seeds: evalcache.Cache[synthSelection, []int64]{Namespace: "experiments.synthseeds"},
		synth: evalcache.Cache[synthCell, methodScores]{Namespace: "experiments.synth"},
	}
}

// Suite loads the 13-program test suite with fuzzed corpora, in
// testsuite.Names order; testsuite loads each subject once.
func (r *Runner) Suite() ([]*testsuite.Subject, error) {
	return testsuite.LoadAll(testsuite.CorpusOptions{Execs: r.Opts.CorpusExecs})
}

// Analysis runs (once) the per-pass analysis for a profile/level.
func (r *Runner) Analysis(p pipeline.Profile, level string) (*tuner.LevelAnalysis, error) {
	return r.analyses.Do(analysisKey{p, level}, func() (*tuner.LevelAnalysis, error) {
		subjects, err := r.Suite()
		if err != nil {
			return nil, err
		}
		return tuner.AnalyzeLevel(testsuite.Programs(subjects), p, level)
	})
}

// specNames returns the benchmarks under test.
func (r *Runner) specNames() []string {
	if r.Opts.SpecSubset != nil {
		return r.Opts.SpecSubset
	}
	return specsuite.Names
}

// productSet evaluates the hybrid product metric of every suite subject
// under cfgs as one set.
func (r *Runner) productSet(cfgs []pipeline.Config) (*suite.Set[float64], error) {
	subjects, err := r.Suite()
	if err != nil {
		return nil, err
	}
	return suite.Evaluate(testsuite.Names, cfgs, func(s int, cfg pipeline.Config) (float64, error) {
		return subjects[s].Product(cfg)
	})
}

// speedupSet evaluates the speedup over O0 of every benchmark under test
// under cfgs as one set.
func (r *Runner) speedupSet(cfgs []pipeline.Config) (*suite.Set[float64], error) {
	names := r.specNames()
	return suite.Evaluate(names, cfgs, func(b int, cfg pipeline.Config) (float64, error) {
		return specsuite.OverO0(names[b], cfg)
	})
}

// leftOut names the subjects a set left out of every mean shown in
// what; it prints nothing when none was.
func leftOut(w io.Writer, what string, names []string) {
	if len(names) > 0 {
		fmt.Fprintf(w, "QUARANTINED: %d subject(s) [%s] left out of every %s\n",
			len(names), strings.Join(names, ", "), what)
	}
}

// ---- Synthetic corpus (Table I) ----

// synthTraceBudget is the step budget of every Table I trace, the O0
// baseline's included.
const synthTraceBudget = 1 << 22

// synthProgram is one selected synthetic subject. Its seed names it and
// its source hash keys its cells; what a measurement needs beyond them
// is built at the first cell that misses the caches.
type synthProgram struct {
	seed int64
	src  uint64 // hash of the generated source

	once sync.Once // runs load
	ir0  *ir.Program
	dr   *sema.DefRanges
	stmt map[int]bool
	base *dbgtrace.Trace // the O0 baseline trace
	err  error
}

// synthOptions keeps synthetic programs small enough to trace quickly.
var synthOptions = synth.Options{
	Funcs: 3, MaxDepth: 2, MaxStmts: 4, MaxVars: 5,
	MaxExpr: 4, Arrays: 2, Globals: 3,
}

// synthSelection declares the one input of Table I's seed selection
// that varies, the number of programs. The rest (the candidate limit,
// the smoke run's step budget, the generator options) is code, which
// the store's tool hash covers.
type synthSelection struct{ Count int }

// synthName names seed's program.
func synthName(seed int64) string { return fmt.Sprintf("synth%d", seed) }

// synthFrontend generates and front-ends seed's program.
func synthFrontend(seed int64) (*sema.Info, *ir.Program, error) {
	info, err := pipeline.Frontend(synthName(seed), []byte(synth.Generate(seed, synthOptions)))
	if err != nil {
		return nil, nil, err
	}
	ir0, err := pipeline.BuildIR(info)
	return info, ir0, err
}

// trySynth generates, front-ends, and smoke-runs one seed, reporting
// whether its program is runnable.
func trySynth(seed int64) bool {
	_, ir0, err := synthFrontend(seed)
	if err != nil {
		return false
	}
	_, err = ir.NewInterp(ir0, 1<<21).Call("main")
	return err == nil
}

// synthPrograms returns Table I's n programs. The selection is kept in
// the runner and the process store, so a warm run only regenerates and
// hashes each selected seed's source, which is all its cell keys need.
func (r *Runner) synthPrograms(n int) ([]*synthProgram, error) {
	seeds, err := r.seeds.Do(synthSelection{Count: n}, func() ([]int64, error) { return loadSynth(n), nil })
	if err != nil {
		return nil, err
	}
	progs := make([]*synthProgram, len(seeds))
	for i, seed := range seeds {
		src := synth.Generate(seed, synthOptions)
		progs[i] = &synthProgram{seed: seed, src: resilience.HashBytes([]byte(src))}
	}
	return progs, nil
}

// loadSynth deterministically selects the seeds of the first n runnable
// synthetic programs. Candidate seeds are evaluated in parallel chunks;
// the selection — the first n runnable seeds in seed order — is
// identical to the serial scan's at any worker count.
func loadSynth(n int) []int64 {
	limit := int64(n) * 30
	chunk := int64(workerpool.Workers()) * 8
	if chunk < 8 {
		chunk = 8
	}
	var out []int64
	for lo := int64(0); int64(len(out)) < int64(n) && lo < limit; lo += chunk {
		hi := lo + chunk
		if hi > limit {
			hi = limit
		}
		seeds := make([]int64, 0, hi-lo)
		for s := lo; s < hi; s++ {
			seeds = append(seeds, s)
		}
		ok, _ := workerpool.Map(context.Background(), seeds,
			func(_ context.Context, _ int, seed int64) (bool, error) {
				return trySynth(seed), nil
			})
		for i, seed := range seeds {
			if ok[i] && len(out) < n {
				out = append(out, seed)
			}
		}
	}
	return out
}

// methodScores is one Table I cell: the four methods of §II for one
// build, plus the dataflow-proven variant of the static method (its
// numerator restricted to claims the owner analysis guarantees
// materialize). Fields are exported so a cell round-trips through the
// persistent store's JSON envelope.
type methodScores struct {
	Static, StaticDbg, Dynamic, Hybrid metrics.Scores
	StaticProven                       metrics.Scores
}

// synthCell declares every input of one Table I cell. The O0 baseline
// the cell is measured against is a function of the source and the
// budget; everything else is code, which the store's tool hash covers.
type synthCell struct {
	Src    uint64 // hash of the generated source
	Config string // config fingerprint
	Budget int64  // trace step budget
}

// synthScores returns program sp's Table I cell under cfg, from the
// runner's cache when it holds the cell. Table I's configs are plain
// levels, which always have a fingerprint.
func (r *Runner) synthScores(sp *synthProgram, cfg pipeline.Config) (methodScores, error) {
	fp, _ := cfg.Fingerprint()
	cell := synthCell{Src: sp.src, Config: fp, Budget: synthTraceBudget}
	return r.synth.Do(cell, func() (methodScores, error) { return sp.measure(cfg) })
}

// measure builds sp under cfg and scores it against its O0 baseline.
func (sp *synthProgram) measure(cfg pipeline.Config) (methodScores, error) {
	var ms methodScores
	if err := sp.load(); err != nil {
		return ms, err
	}
	bin := pipeline.Build(sp.ir0, cfg)
	sess, err := debugger.NewSession(bin)
	if err != nil {
		return ms, err
	}
	tr, err := sess.TraceMain("main", synthTraceBudget)
	if err != nil {
		return ms, err
	}
	table, err := debuginfo.Decode(bin.Debug)
	if err != nil {
		return ms, err
	}
	ms.Dynamic = metrics.Dynamic(tr, sp.base)
	ms.Hybrid = metrics.Hybrid(tr, sp.base, sp.dr)
	ms.Static = metrics.Static(table, sp.stmt, sp.dr)
	ms.StaticDbg = metrics.StaticDbg(table, sp.base, sp.dr)
	ms.StaticProven = metrics.StaticProven(bin, table, sp.stmt, sp.dr)
	return ms, nil
}

// load builds, once, what measuring sp needs: the front end and IR,
// the def ranges, the statement lines and the O0 baseline trace.
// Concurrent cells share one load.
func (sp *synthProgram) load() error {
	sp.once.Do(func() {
		var info *sema.Info
		info, sp.ir0, sp.err = synthFrontend(sp.seed)
		if sp.err != nil {
			return
		}
		sp.dr = sema.ComputeDefRanges(info)
		sp.stmt = sema.StatementLines(info)
		sess, err := debugger.NewSession(pipeline.Build(sp.ir0, pipeline.MustConfig(pipeline.GCC, "O0")))
		if err != nil {
			sp.err = err
			return
		}
		sp.base, sp.err = sess.TraceMain("main", synthTraceBudget)
	})
	return sp.err
}

// levelsUnderTest enumerates the (profile, level) pairs the paper
// reports.
func levelsUnderTest() []pipeline.Config {
	var out []pipeline.Config
	for _, l := range pipeline.Levels(pipeline.GCC) {
		out = append(out, pipeline.MustConfig(pipeline.GCC, l))
	}
	for _, l := range pipeline.Levels(pipeline.Clang) {
		out = append(out, pipeline.MustConfig(pipeline.Clang, l))
	}
	return out
}

// geo folds per-program scores into the geometric mean the paper uses.
func geo(vals []float64) float64 { return metrics.GeoMean(vals) }

// sortedKeys returns map keys sorted for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// hr prints a horizontal rule.
func hr(w io.Writer, n int) {
	for i := 0; i < n; i++ {
		fmt.Fprint(w, "-")
	}
	fmt.Fprintln(w)
}
