// Package testsuite assembles the debug-information test suite of §IV:
// thirteen real-world-shaped MiniC programs named after the paper's
// OSS-Fuzz subjects, each with one or more fuzzing harnesses, plus the
// corpus pipeline that grows, minimizes, and trace-prunes their inputs.
package testsuite

import (
	"context"
	"embed"
	"fmt"

	"debugtuner/internal/corpus"
	"debugtuner/internal/dbgtrace"
	"debugtuner/internal/debugger"
	"debugtuner/internal/evalcache"
	"debugtuner/internal/pipeline"
	"debugtuner/internal/resilience"
	"debugtuner/internal/tuner"
	"debugtuner/internal/workerpool"
)

//go:embed programs/*.mc
var programFS embed.FS

// Names lists the suite members in the paper's order.
var Names = []string{
	"bzip2", "libdwarf", "libexif", "liblouis", "libmpeg2", "libpcap",
	"libpng", "libssh", "libyaml", "lighttpd", "wasm3", "zlib", "zydis",
}

// Source returns a program's MiniC source.
func Source(name string) ([]byte, error) {
	return programFS.ReadFile("programs/" + name + ".mc")
}

// CorpusOptions tunes the input pipeline; zero values pick defaults
// scaled for test runs.
type CorpusOptions struct {
	// Execs per harness in the fuzzing phase.
	Execs int
	// StepBudget per execution.
	StepBudget int64
	// Seed offsets the per-harness PRNG seeds.
	Seed int64
}

// HarnessCorpus is the minimized input set of one harness.
type HarnessCorpus struct {
	Harness string
	// Queue is the full grown queue size (pre-minimization).
	Queue int
	// AfterCMin counts inputs after coverage-preserving minimization.
	AfterCMin int
	// Inputs is the final input set after debug-trace cover pruning.
	Inputs [][]int64
}

// Subject is one loaded suite member with its corpora.
type Subject struct {
	*tuner.Program
	Corpora []HarnessCorpus
	key     corpusKey // the subject and the options it was loaded under
}

// Stats reproduces the Table III row for the subject.
type Stats struct {
	Name string
	// AvgInputs is the per-harness average of the final input counts.
	AvgInputs float64
	// ReductionPct is the average queue-size reduction.
	ReductionPct float64
	// SteppableLines is the count of breakpoint-eligible lines at -O0.
	SteppableLines int
	// SteppedLines is the count of distinct lines stepped by the final
	// inputs at -O0.
	SteppedLines int
	// DebugCoveragePct = 100 * stepped / steppable.
	DebugCoveragePct float64
}

// corpusKey declares every input of one subject's corpora: the subject
// and its source, and the corpus options. Everything else the fuzzer,
// cmin and cover pruning compute from is code, which the store's tool
// hash covers.
type corpusKey struct {
	Name       string
	Src        uint64 // hash of the subject's source
	Execs      int
	StepBudget int64
	Seed       int64
}

// coverageKey declares every input of a subject's O0 debug coverage:
// the corpusKey fields, which fix the inputs traced, and the trace step
// budget.
type coverageKey struct {
	Name       string
	Src        uint64
	Execs      int
	StepBudget int64
	Seed       int64
	Budget     int64 // trace step budget (tuner.Program.Budget)
}

// coverage is a subject's O0 debug coverage: its steppable lines and
// the distinct lines its final inputs step.
type coverage struct{ Steppable, Stepped int }

var (
	// subjects holds each loaded subject, so concurrent loaders of one
	// subject share one load.
	subjects evalcache.Cache[corpusKey, *Subject]
	// corpora is the store's level of the corpora: a later process
	// front-ends the subject and installs the stored inputs without
	// fuzzing.
	corpora = evalcache.Cache[corpusKey, []HarnessCorpus]{Namespace: "testsuite.corpus"}
	// coverages is the store's level of Table III's coverage columns: a
	// later process prints them without building or tracing at O0.
	coverages = evalcache.Cache[coverageKey, coverage]{Namespace: "testsuite.coverage"}
)

// Load builds one subject: front-end the source, grow a corpus per
// harness, run cmin and trace-cover pruning, and install the final
// inputs in the tuner.Program. Results are memoized per (name,
// options), and the corpora are kept in the process store.
func Load(name string, opts CorpusOptions) (*Subject, error) {
	if opts.Execs == 0 {
		opts.Execs = 600
	}
	if opts.StepBudget == 0 {
		opts.StepBudget = 1 << 19
	}
	src, err := Source(name)
	if err != nil {
		return nil, err
	}
	key := corpusKey{Name: name, Src: resilience.HashBytes(src),
		Execs: opts.Execs, StepBudget: opts.StepBudget, Seed: opts.Seed}
	return subjects.Do(key, func() (*Subject, error) {
		prog, err := tuner.LoadProgram(name, src, nil)
		if err != nil {
			return nil, err
		}
		hcs, err := corpora.Do(key, func() ([]HarnessCorpus, error) {
			return growCorpora(prog, opts)
		})
		if err != nil {
			return nil, err
		}
		inputs := map[string][][]int64{}
		for _, hc := range hcs {
			inputs[hc.Harness] = hc.Inputs
		}
		prog.Inputs = inputs
		return &Subject{Program: prog, Corpora: hcs, key: key}, nil
	})
}

// growCorpora grows, minimizes and trace-prunes one corpus per harness
// of prog, in harness order.
func growCorpora(prog *tuner.Program, opts CorpusOptions) ([]HarnessCorpus, error) {
	// The corpus is grown against the -O0 build: coverage-guided
	// fuzzing needs the unoptimized edge structure, like OSS-Fuzz's
	// coverage builds.
	bin := prog.Build(pipeline.MustConfig(pipeline.GCC, "O0"))
	sess, err := debugger.NewSession(bin)
	if err != nil {
		return nil, err
	}
	var corpora []HarnessCorpus
	for hi, h := range prog.Info.Harnesses {
		fz := &corpus.Fuzzer{
			Bin: bin, Harness: h,
			Seed:       opts.Seed + int64(hi)*7919 + hash(prog.Name),
			Execs:      opts.Execs,
			StepBudget: opts.StepBudget,
		}
		queue := fz.Run()
		kept := corpus.CMin(queue)

		// Debug-trace set-cover pruning: trace each cmin survivor
		// individually, keep only inputs contributing new stepped lines.
		perInput := make([]*dbgtrace.Trace, len(kept))
		for i, idx := range kept {
			tr, err := sess.Trace(h, [][]int64{queue.Entries[idx].Input}, opts.StepBudget*4)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", prog.Name, h, err)
			}
			perInput[i] = tr
		}
		finalIdx := dbgtrace.CoverPrune(perInput)
		var final [][]int64
		for _, i := range finalIdx {
			final = append(final, queue.Entries[kept[i]].Input)
		}
		corpora = append(corpora, HarnessCorpus{
			Harness: h, Queue: len(queue.Entries),
			AfterCMin: len(kept), Inputs: final,
		})
	}
	return corpora, nil
}

// liteCache memoizes corpus-less subjects per name.
var liteCache evalcache.Cache[string, *Subject]

// LoadLite front-ends a subject without growing a corpus: no fuzzing,
// no minimization, no inputs installed. Suitable for consumers that
// only build and inspect the subject (the passreport damage table).
func LoadLite(name string) (*Subject, error) {
	return liteCache.Do(name, func() (*Subject, error) {
		src, err := Source(name)
		if err != nil {
			return nil, err
		}
		prog, err := tuner.LoadProgram(name, src, nil)
		if err != nil {
			return nil, err
		}
		return &Subject{Program: prog}, nil
	})
}

// LoadAll loads every suite member. Subjects are independent (each owns
// its front-end, fuzzer PRNG, and debug session), so they load
// concurrently on the worker pool; the returned slice keeps the paper's
// suite order.
func LoadAll(opts CorpusOptions) ([]*Subject, error) {
	return workerpool.Map(context.Background(), Names,
		func(_ context.Context, _ int, n string) (*Subject, error) {
			return Load(n, opts)
		})
}

// Programs extracts the tuner programs from subjects.
func Programs(subjects []*Subject) []*tuner.Program {
	out := make([]*tuner.Program, len(subjects))
	for i, s := range subjects {
		out[i] = s.Program
	}
	return out
}

// ComputeStats builds the Table III row of a subject from Load (a
// LoadLite subject has no corpora and no corpus key): input counts,
// reductions, and debug coverage at -O0. The coverage is kept in the
// process store; the input columns come from the corpora.
func (s *Subject) ComputeStats() (Stats, error) {
	st := Stats{Name: s.Name}
	k := s.key
	cov, err := coverages.Do(coverageKey{Name: k.Name, Src: k.Src, Execs: k.Execs,
		StepBudget: k.StepBudget, Seed: k.Seed, Budget: s.Budget}, func() (coverage, error) {
		base, err := s.Baseline()
		if err != nil {
			return coverage{}, err
		}
		return coverage{Steppable: base.Steppable, Stepped: len(base.Stepped)}, nil
	})
	if err != nil {
		return st, err
	}
	st.SteppableLines, st.SteppedLines = cov.Steppable, cov.Stepped
	if st.SteppableLines > 0 {
		st.DebugCoveragePct = 100 * float64(st.SteppedLines) / float64(st.SteppableLines)
	}
	var sumFinal, sumQueue float64
	for _, hc := range s.Corpora {
		sumFinal += float64(len(hc.Inputs))
		if hc.Queue > 0 {
			sumQueue += 100 * (1 - float64(len(hc.Inputs))/float64(hc.Queue))
		}
	}
	if n := float64(len(s.Corpora)); n > 0 {
		st.AvgInputs = sumFinal / n
		st.ReductionPct = sumQueue / n
	}
	return st, nil
}

// hash gives a stable per-name seed component.
func hash(s string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range s {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h % 1000003
}
