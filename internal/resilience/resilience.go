// Package resilience is the fault-isolation layer wrapped around the
// evaluation matrix. DebugTuner's methodology rebuilds every program
// once per disabled pass — a (program × config) matrix of thousands of
// cells — and before this package existed one panicking pass destroyed
// the entire run. Every cell now runs under one fault policy:
//
//   - Cell isolation (Run): each (subject, config) build/trace runs
//     once, on the caller's goroutine, under a deferred recover that
//     turns a panic into a typed error naming the pass it came from.
//
//   - Quarantine: a cell that panics or returns an error is recorded,
//     not fatal. Builds are deterministic and the VM is cycle-exact, so
//     a second attempt would fail the same way; the cell quarantines at
//     once. Rankings, Pareto fronts, and experiment tables render with
//     explicit QUARANTINED gaps, and the process exits with a distinct
//     nonzero code instead of aborting the run.
//
//   - Deterministic chaos (Chaos): a seeded fault injector makes
//     wrapped cells panic or fail on a schedule derived only from the
//     cell key, so tests and the CI smoke can prove isolation and
//     quarantine actually work.
//
// One executor is always installed (Active is never nil), so whether a
// cell is isolated never depends on a command's flags: a compiler crash
// quarantines the same way in experiments, debugtuner, tunerd and hunt.
//
// Resuming is not this package's job: a completed cell's result lives
// in the evaluation store (evalcache), so an interrupted run resumes by
// rerunning on the same store. A quarantine is never stored, so the
// rerun recomputes every cell the interrupted run lost.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"debugtuner/internal/telemetry"
)

// Executor runs cells, injects its chaos schedule, and records
// quarantines. Construct with NewExecutor.
type Executor struct {
	chaos *Chaos

	mu          sync.Mutex
	quarantined map[string]*CellError
}

// NewExecutor creates an executor that injects chaos's faults (nil for
// none).
func NewExecutor(chaos *Chaos) *Executor {
	return &Executor{chaos: chaos, quarantined: map[string]*CellError{}}
}

// active is the process-wide executor; it is never nil.
var active atomic.Pointer[Executor]

func init() { active.Store(NewExecutor(nil)) }

// Install makes ex the process-wide executor and returns the previously
// installed one. A nil ex installs a fresh executor without chaos.
func Install(ex *Executor) *Executor {
	if ex == nil {
		ex = NewExecutor(nil)
	}
	return active.Swap(ex)
}

// Active returns the installed executor; it is never nil.
func Active() *Executor { return active.Load() }

// Quarantined returns the executor's quarantined cells sorted by key —
// a deterministic order regardless of worker count or completion order.
func (ex *Executor) Quarantined() []*CellError {
	ex.mu.Lock()
	defer ex.mu.Unlock()
	out := make([]*CellError, 0, len(ex.quarantined))
	for _, ce := range ex.quarantined {
		out = append(out, ce)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// WriteReport renders the deterministic quarantine gap report: a
// "QUARANTINED(n)" header followed by one sorted line per cell. It
// writes nothing when no cell is quarantined, so fault-free runs print
// only their results.
func (ex *Executor) WriteReport(w io.Writer) {
	qs := ex.Quarantined()
	if len(qs) == 0 {
		return
	}
	fmt.Fprintf(w, "QUARANTINED(%d)\n", len(qs))
	for _, ce := range qs {
		fmt.Fprintf(w, "  %s: %s", ce.Key, ce.Kind)
		if ce.Pass != "" {
			fmt.Fprintf(w, " [pass %s]", ce.Pass)
		}
		fmt.Fprintln(w)
	}
}

// Run executes one cell once under the installed executor: the chaos
// decision, then fn on the caller's goroutine with a deferred recover.
// A panic or an error quarantines the cell; a cancelled parent context
// is the caller's signal, not a cell fault, and returns unquarantined.
func Run[V any](ctx context.Context, key string, fn func(context.Context) (V, error)) (v V, err error) {
	if err := ctx.Err(); err != nil {
		return v, err
	}
	ex := Active()
	telemetry.Add("resilience.cells", 1)
	fault := ex.chaos.Decide(key)
	if fault != FaultNone {
		telemetry.Add("resilience.chaos.injected", 1)
	}
	defer func() {
		if p := recover(); p != nil {
			stack := debug.Stack()
			telemetry.Add("resilience.panics", 1)
			var zero V
			v, err = zero, ex.quarantine(key, &panicError{val: p, pass: attributePass(stack)})
		}
	}()
	switch fault {
	case FaultPanic:
		panic("chaos: injected panic")
	case FaultError:
		return v, ex.quarantine(key, errors.New("chaos: injected error"))
	}
	v, err = fn(ctx)
	if err == nil {
		return v, nil
	}
	if cerr := ctx.Err(); cerr != nil && errors.Is(err, cerr) {
		return v, err
	}
	var zero V
	return zero, ex.quarantine(key, err)
}

// quarantine records the cell's failure and returns the typed error
// callers test with IsQuarantined.
func (ex *Executor) quarantine(key string, cause error) *CellError {
	ce := &CellError{Key: key, Kind: KindError, Err: cause}
	var pe *panicError
	if errors.As(cause, &pe) {
		ce.Kind, ce.Pass = KindPanic, pe.pass
	}
	ex.mu.Lock()
	if _, dup := ex.quarantined[key]; !dup {
		ex.quarantined[key] = ce
	}
	ex.mu.Unlock()
	telemetry.Add("resilience.quarantined", 1)
	return ce
}
