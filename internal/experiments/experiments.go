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

// Runner executes and caches the evaluation: the loaded suite, the
// per-level pass analyses, the AutoFDO measurements and the Table I
// cells. Each is an evalcache.Cache, so concurrent table generators
// asking for the same intermediate block on one computation instead of
// duplicating it. Suite averages are not memoized here: every table
// evaluates its (subject × config) set through suite.Evaluate, whose
// cells hit the measurement caches underneath (tuner.Program's scores,
// specsuite's cycle counts, the synth cells below).
type Runner struct {
	Opts Options

	subjects evalcache.Cache[[]*testsuite.Subject]
	analyses evalcache.Cache[*tuner.LevelAnalysis]
	fdo      evalcache.Cache[fdoResult]    // bench|final|profiling -> AutoFDO measurement
	synth    evalcache.Cache[methodScores] // synthCell.key() -> Table I cell
}

// NewRunner creates a runner. AutoFDO measurements and Table I cells
// are bound to the process-wide persistent store when one is installed.
// An AutoFDO key (benchmark × final fingerprint × profiling fingerprint)
// plus the sampling period in the namespace fully determines the
// result, since benchmark sources are embedded in the executable and
// therefore covered by the store's tool hash; a Table I key is built
// from its declared inputs (synthCell).
func NewRunner(opts Options) *Runner {
	r := &Runner{Opts: opts}
	r.fdo.SetDisk(evalcache.DefaultDisk(),
		fmt.Sprintf("experiments.fdo|sample%d", opts.SampleEvery))
	r.synth.SetDisk(evalcache.DefaultDisk(), "experiments.synth")
	return r
}

// Suite loads (once) the 13-program test suite with fuzzed corpora, in
// testsuite.Names order.
func (r *Runner) Suite() ([]*testsuite.Subject, error) {
	return r.subjects.Do("suite", func() ([]*testsuite.Subject, error) {
		return testsuite.LoadAll(testsuite.CorpusOptions{Execs: r.Opts.CorpusExecs})
	})
}

// Analysis runs (once) the per-pass analysis for a profile/level.
func (r *Runner) Analysis(p pipeline.Profile, level string) (*tuner.LevelAnalysis, error) {
	return r.analyses.Do(string(p)+"/"+level, func() (*tuner.LevelAnalysis, error) {
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

// memoKey renders the memoization key of a config: the content
// fingerprint when it has one, else the display name (never reached by
// the table generators, which pass no FDO configs here).
func memoKey(cfg pipeline.Config) string {
	if fp, ok := cfg.Fingerprint(); ok {
		return fp
	}
	return cfg.Name()
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

// synthProgram is one loaded synthetic subject.
type synthProgram struct {
	src  uint64 // hash of the generated source
	info *sema.Info
	dr   *sema.DefRanges
	ir0  *ir.Program
	stmt map[int]bool

	baseOnce sync.Once
	base     *dbgtrace.Trace
	baseErr  error
}

// synthOptions keeps synthetic programs small enough to trace quickly.
var synthOptions = synth.Options{
	Funcs: 3, MaxDepth: 2, MaxStmts: 4, MaxVars: 5,
	MaxExpr: 4, Arrays: 2, Globals: 3,
}

// trySynth generates, front-ends, and smoke-runs one seed, returning
// nil when the program is not runnable.
func trySynth(seed int64) *synthProgram {
	src := synth.Generate(seed, synthOptions)
	info, err := pipeline.Frontend(fmt.Sprintf("synth%d", seed), []byte(src))
	if err != nil {
		return nil
	}
	ir0, err := pipeline.BuildIR(info)
	if err != nil {
		return nil
	}
	it := ir.NewInterp(ir0, 1<<21)
	if _, err := it.Call("main"); err != nil {
		return nil
	}
	return &synthProgram{
		src: resilience.HashBytes([]byte(src)), info: info,
		dr: sema.ComputeDefRanges(info), ir0: ir0,
		stmt: sema.StatementLines(info),
	}
}

// loadSynth deterministically selects the first n runnable synthetic
// programs. Candidate seeds are evaluated in parallel chunks; the
// selection — the first n runnable seeds in seed order — is identical
// to the serial scan's at any worker count.
func loadSynth(n int) []*synthProgram {
	limit := int64(n) * 30
	chunk := int64(workerpool.Workers()) * 8
	if chunk < 8 {
		chunk = 8
	}
	var out []*synthProgram
	for lo := int64(0); int64(len(out)) < int64(n) && lo < limit; lo += chunk {
		hi := lo + chunk
		if hi > limit {
			hi = limit
		}
		seeds := make([]int64, 0, hi-lo)
		for s := lo; s < hi; s++ {
			seeds = append(seeds, s)
		}
		batch, _ := workerpool.Map(context.Background(), seeds,
			func(_ context.Context, _ int, seed int64) (*synthProgram, error) {
				return trySynth(seed), nil
			})
		for _, sp := range batch {
			if sp != nil && len(out) < n {
				out = append(out, sp)
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

// key is the one constructor of an experiments.synth key.
func (c synthCell) key() string {
	return fmt.Sprintf("synth#%016x|b%d|%s", c.Src, c.Budget, c.Config)
}

// synthScores returns program sp's Table I cell under cfg, from the
// runner's cache when it holds the cell.
func (r *Runner) synthScores(sp *synthProgram, cfg pipeline.Config) (methodScores, error) {
	cell := synthCell{Src: sp.src, Config: memoKey(cfg), Budget: synthTraceBudget}
	return r.synth.Do(cell.key(), func() (methodScores, error) { return sp.measure(cfg) })
}

// measure builds sp under cfg and scores it against its O0 baseline.
func (sp *synthProgram) measure(cfg pipeline.Config) (methodScores, error) {
	var ms methodScores
	base, err := sp.baseline()
	if err != nil {
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
	ms.Dynamic = metrics.Dynamic(tr, base)
	ms.Hybrid = metrics.Hybrid(tr, base, sp.dr)
	ms.Static = metrics.Static(table, sp.stmt, sp.dr)
	ms.StaticDbg = metrics.StaticDbg(table, base, sp.dr)
	ms.StaticProven = metrics.StaticProven(bin, table, sp.stmt, sp.dr)
	return ms, nil
}

func (sp *synthProgram) baseline() (*dbgtrace.Trace, error) {
	sp.baseOnce.Do(func() {
		bin := pipeline.Build(sp.ir0, pipeline.MustConfig(pipeline.GCC, "O0"))
		sess, err := debugger.NewSession(bin)
		if err != nil {
			sp.baseErr = err
			return
		}
		sp.base, sp.baseErr = sess.TraceMain("main", synthTraceBudget)
	})
	return sp.base, sp.baseErr
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
