// Package difftest is the correctness layer under the evaluation engine:
// a differential-testing subsystem in the style of Di Luna et al.'s
// "Who's Debugging the Debuggers?" applied to the MiniC toolchain.
//
// MiniC's total semantics (wrapping arithmetic, div/rem by zero yielding
// zero, masked shift counts, tolerated out-of-bounds accesses) were
// chosen so that every optimization pipeline is unconstrained and
// therefore differential: any two builds of the same program must agree
// on observable behavior. This package exploits that with three parts:
//
//   - a differential oracle (oracle.go) that compiles each subject under
//     a matrix of pipeline configurations — both profiles × all levels ×
//     single-pass-disabled toggles — and cross-checks the print stream,
//     return values, and termination of every build against the O0
//     reference (and the O0 reference itself against the IR interpreter,
//     so back-end bugs at O0 cannot silently become the baseline);
//
//   - a debug-info invariant checker (invariants.go) over every emitted
//     binary: line-table monotonicity, location-list well-formedness and
//     function-bound containment, owner-tag witnesses for register and
//     spill locations, and the dynamic ⊆ static availability direction
//     the hybrid metric depends on (§II);
//
//   - a delta-debugging reducer (reduce.go) that shrinks a failing MiniC
//     program to a 1-minimal line set, for checking in as a regression
//     fixture under testdata/.
//
// Builds fan out over internal/workerpool and are memoized per
// (subject, config fingerprint) via internal/evalcache; each subject's
// findings over the matrix are kept in the persistent store, so a rerun
// on the same store resumes an interrupted run. The report is
// byte-identical at any worker count and any store state.
package difftest

import (
	"context"
	"fmt"
	"io"
	"sort"

	"debugtuner/internal/evalcache"
	"debugtuner/internal/telemetry"
	"debugtuner/internal/testsuite"
	"debugtuner/internal/workerpool"
)

// Options bounds one differential run.
type Options struct {
	// Seeds lists the synth program seeds to test.
	Seeds []int64
	// Spec selects the configuration matrix, see ParseMatrix.
	Spec string
	// Testsuite lists test-suite program names to include as subjects
	// (nil = none; testsuite.Names = the full suite).
	Testsuite []string
	// CorpusExecs > 0 grows real fuzzing corpora for the test-suite
	// subjects (testsuite.Load); 0 uses deterministic pseudo-corpus
	// inputs, which keep the smoke run bounded.
	CorpusExecs int
	// Budget is the per-run VM step budget (0 = DefaultBudget).
	Budget int64
	// Interrupt, when non-nil, stops the run between subjects once the
	// context is cancelled (a SIGINT/SIGTERM drain): subjects already in
	// flight finish into the store, no new subject starts, and Run
	// returns the context error so the caller can exit distinctly.
	Interrupt context.Context
}

// DefaultBudget bounds each VM run. Short subjects finish well inside
// it; a seed whose nested loop/call chains multiply past the budget is
// compared on its observable prefix instead — the budget is what keeps
// per-subject cost bounded across a ~100-config matrix, and divergences
// overwhelmingly surface within the first stretch of the output stream.
const DefaultBudget int64 = 1 << 20

// DefaultTraceBudget bounds the debug-trace session behind the dynamic
// invariant check. Single-stepping with per-stop variable materialization
// is an order of magnitude slower than plain execution, so the dynamic
// <= static check runs on a shorter prefix of the same deterministic run.
const DefaultTraceBudget int64 = 1 << 16

// Report is the deterministic outcome of a Run.
type Report struct {
	Subjects   int
	Configs    int
	Builds     int
	Findings   []Finding
	Mismatches int
	Violations int
	// Quarantined counts cells the resilience layer gave up on; their
	// comparisons are explicit gaps (KindQuarantine findings), not
	// silently-passing holes.
	Quarantined int
}

// Run executes the differential matrix and writes a deterministic
// plain-text report: counts first, then one line per finding in sorted
// order. It returns an error only on harness failure (a subject that
// does not front-end, an unknown matrix spec); findings are data.
func Run(w io.Writer, opts Options) (*Report, error) {
	span := telemetry.Begin("difftest", "run")
	defer span.End()

	configs, err := ParseMatrix(opts.Spec)
	if err != nil {
		return nil, err
	}
	var subjects []*Subject
	for _, seed := range opts.Seeds {
		subjects = append(subjects, SynthSubject(seed))
	}
	for _, name := range opts.Testsuite {
		s, err := SuiteSubject(name, opts.CorpusExecs)
		if err != nil {
			return nil, err
		}
		subjects = append(subjects, s)
	}

	o := NewOracle(configs)
	if opts.Budget > 0 {
		o.Budget = opts.Budget
	}
	ctx := opts.Interrupt
	if ctx == nil {
		ctx = context.Background()
	}
	findings, err := o.CheckContext(ctx, subjects)
	if err != nil {
		return nil, err
	}

	rep := &Report{
		Subjects: len(subjects),
		Configs:  len(configs),
		Builds:   len(subjects) * len(configs),
		Findings: findings,
	}
	for _, f := range findings {
		switch f.Kind {
		case KindInvariant:
			rep.Violations++
		case KindQuarantine:
			rep.Quarantined++
		default:
			rep.Mismatches++
		}
	}
	telemetry.Add("difftest.subjects", int64(rep.Subjects))
	telemetry.Add("difftest.mismatches", int64(rep.Mismatches))
	telemetry.Add("difftest.violations", int64(rep.Violations))
	telemetry.Add("difftest.quarantined", int64(rep.Quarantined))

	fmt.Fprintf(w, "difftest: %d subjects x %d configs (%s)\n",
		rep.Subjects, rep.Configs, specName(opts.Spec))
	fmt.Fprintf(w, "behavior mismatches:  %d\n", rep.Mismatches)
	fmt.Fprintf(w, "invariant violations: %d\n", rep.Violations)
	if rep.Quarantined > 0 {
		// Printed only when nonzero so fault-free runs stay byte-identical
		// to pre-resilience reports.
		fmt.Fprintf(w, "quarantined cells:    %d\n", rep.Quarantined)
	}
	for _, f := range rep.Findings {
		if f.Kind == KindQuarantine {
			fmt.Fprintf(w, "QUAR %s\n", f)
		} else {
			fmt.Fprintf(w, "FAIL %s\n", f)
		}
	}
	// PASS means the comparisons that ran all agreed; quarantined gaps
	// are reported above and drive the process exit code separately.
	if rep.Mismatches+rep.Violations == 0 {
		fmt.Fprintln(w, "PASS")
	}
	return rep, nil
}

// Check runs every subject against every configuration on the worker
// pool and returns the findings sorted by (subject, config, kind).
func (o *Oracle) Check(subjects []*Subject) ([]Finding, error) {
	return o.CheckContext(context.Background(), subjects)
}

// CheckContext is Check under a cancellation context: once ctx is
// cancelled no new subject starts and the context error is returned.
// Each subject's findings are one unit of the store; a unit with a
// quarantine in it is reported but not kept, so a rerun recomputes it.
func (o *Oracle) CheckContext(ctx context.Context, subjects []*Subject) ([]Finding, error) {
	matrix, keyed := o.matrixDigest()
	perSubject, err := workerpool.Map(ctx, subjects,
		func(_ context.Context, _ int, s *Subject) ([]Finding, error) {
			if !keyed {
				return o.CheckSubject(s)
			}
			return o.units.Do(o.unit(s, matrix), func() ([]Finding, error) {
				fs, err := o.CheckSubject(s)
				for _, f := range fs {
					if f.Kind == KindQuarantine {
						return nil, evalcache.Unstored[[]Finding]{Value: fs}
					}
				}
				return fs, err
			})
		})
	if err != nil {
		return nil, err
	}
	var findings []Finding
	for _, fs := range perSubject {
		findings = append(findings, fs...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Subject != b.Subject {
			return a.Subject < b.Subject
		}
		if a.Config != b.Config {
			return a.Config < b.Config
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
	return findings, nil
}

// SuiteSubject wraps a test-suite program as a differential subject.
// With execs > 0 the real corpus pipeline supplies the inputs; otherwise
// each harness gets a small deterministic pseudo-corpus. A subject whose
// source cannot be loaded is an error, not a panic: the lookup races
// with nothing, but an embedded-suite rename (or a caller passing a name
// LoadLite accepted under a different spelling) must surface as a
// harness failure the runner can report, not a crash that kills every
// other subject in the matrix.
func SuiteSubject(name string, execs int) (*Subject, error) {
	src, err := testsuite.Source(name)
	if err != nil {
		return nil, fmt.Errorf("difftest: subject %s: %w", name, err)
	}
	if execs > 0 {
		ts, err := testsuite.Load(name, testsuite.CorpusOptions{Execs: execs})
		if err != nil {
			return nil, err
		}
		return &Subject{
			Name:      name,
			Src:       src,
			Harnesses: ts.Program.Info.Harnesses,
			Inputs:    ts.Program.Inputs,
		}, nil
	}
	ts, err := testsuite.LoadLite(name)
	if err != nil {
		return nil, err
	}
	s := &Subject{
		Name:      name,
		Src:       src,
		Harnesses: ts.Program.Info.Harnesses,
		Inputs:    map[string][][]int64{},
	}
	for hi, h := range s.Harnesses {
		s.Inputs[h] = pseudoCorpus(name, hi)
	}
	return s, nil
}

// pseudoCorpus derives a few byte-valued input vectors from a stable
// per-(program, harness) hash — a stand-in for a grown corpus that keeps
// the default difftest run bounded and deterministic.
func pseudoCorpus(name string, harness int) [][]int64 {
	h := uint64(1469598103934665603)
	mix := func(x uint64) {
		h ^= x
		h *= 1099511628211
	}
	for _, c := range name {
		mix(uint64(c))
	}
	mix(uint64(harness) + 7919)
	var out [][]int64
	for i := 0; i < 3; i++ {
		n := 8 + int(h%17)
		in := make([]int64, n)
		for j := range in {
			mix(uint64(i*131 + j))
			in[j] = int64(h % 256)
		}
		out = append(out, in)
	}
	return out
}

func specName(spec string) string {
	if spec == "" {
		return "full"
	}
	return spec
}
