// Package resilience is the fault-tolerant execution layer wrapped
// around the evaluation matrix. DebugTuner's methodology rebuilds every
// program once per disabled pass — a (program × config) matrix of
// thousands of cells — and before this package existed one panicking
// pass, one runaway build, or one killed process destroyed the entire
// run. Production experiment fleets (AutoFDO-style build/measure
// pipelines, OSS-Fuzz-style crash-resilient harnesses) survive
// individual cell failures instead; this package brings the same
// discipline to the reproduction:
//
//   - Cell isolation (Run): each (subject, config) build/trace executes
//     on its own goroutine with panics converted to typed errors,
//     per-cell deadlines enforced via context, and transiently-failed
//     cells retried under capped exponential backoff with seeded,
//     deterministic jitter — output stays byte-identical at any -j.
//
//   - Quarantine: cells that exhaust their retries are recorded, not
//     fatal. Rankings, Pareto fronts, and experiment tables render with
//     explicit QUARANTINED gaps, and the process exits with a distinct
//     nonzero code instead of aborting the run.
//
//   - Deterministic chaos (Chaos): a seeded fault injector makes wrapped
//     cells panic, stall past their deadline, or fail transiently on a
//     schedule derived only from the cell key, so tests and the CI smoke
//     can prove isolation, retry and quarantine actually work.
//
// Resuming is not this package's job: a completed cell's result lives
// in the evaluation store (evalcache), so an interrupted run resumes by
// rerunning on the same store. A quarantine is never stored, so the
// rerun retries every cell the interrupted run lost.
//
// Like telemetry, the layer is off by default: a nil *Executor makes Run
// a direct call with zero overhead, so the fault-free fast path is
// byte-for-byte the pre-resilience evaluation.
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
	"time"

	"debugtuner/internal/telemetry"
)

// Policy bounds one executor's cell handling.
type Policy struct {
	// Retries is the number of additional attempts after the first for
	// transiently-failed cells. Permanent failures never retry.
	Retries int
	// CellTimeout, when > 0, is the per-cell deadline. A cell that
	// overruns it is abandoned (its goroutine keeps running but its
	// result is discarded) and the attempt counts as transient.
	CellTimeout time.Duration
	// BackoffBase is the first retry's backoff; each further retry
	// doubles it up to BackoffCap. Jitter is derived deterministically
	// from Seed and the cell key, so wall-clock is the only thing that
	// varies between runs — never results or output bytes.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Seed feeds the deterministic backoff jitter.
	Seed uint64
}

// DefaultPolicy returns the policy NewExecutor normalizes toward.
func DefaultPolicy() Policy {
	return Policy{
		Retries:     2,
		BackoffBase: 5 * time.Millisecond,
		BackoffCap:  250 * time.Millisecond,
	}
}

// Executor runs cells under a policy and records quarantines. The zero
// executor is not usable; construct with NewExecutor.
type Executor struct {
	Policy Policy
	Chaos  *Chaos

	mu          sync.Mutex
	quarantined map[string]*CellError
}

// NewExecutor creates an executor, filling unset policy fields from
// DefaultPolicy.
func NewExecutor(p Policy) *Executor {
	def := DefaultPolicy()
	if p.Retries < 0 {
		p.Retries = 0
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = def.BackoffBase
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = def.BackoffCap
	}
	return &Executor{Policy: p, quarantined: map[string]*CellError{}}
}

// active is the process-global executor; nil means the resilience layer
// is disabled and Run degenerates to a direct call.
var active atomic.Pointer[Executor]

// Install makes ex the process-global executor (nil disables) and
// returns the previously installed one.
func Install(ex *Executor) *Executor { return active.Swap(ex) }

// Active returns the installed executor, or nil when disabled.
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
// writes nothing when no cell is quarantined, so fault-free runs stay
// byte-identical to pre-resilience output.
func (ex *Executor) WriteReport(w io.Writer) {
	qs := ex.Quarantined()
	if len(qs) == 0 {
		return
	}
	fmt.Fprintf(w, "QUARANTINED(%d)\n", len(qs))
	for _, ce := range qs {
		fmt.Fprintf(w, "  %s: %s after %d attempt(s)", ce.Key, ce.Kind, ce.Attempts)
		if ce.Pass != "" {
			fmt.Fprintf(w, " [pass %s]", ce.Pass)
		}
		fmt.Fprintln(w)
	}
}

// Run executes one cell under the executor's policy: chaos injection,
// panic capture, deadline enforcement, retry with deterministic backoff,
// and quarantine on exhaustion. A nil executor is a direct call.
func Run[V any](ex *Executor, ctx context.Context, key string, fn func(context.Context) (V, error)) (V, error) {
	var zero V
	if ex == nil {
		return fn(ctx)
	}
	telemetry.Add("resilience.cells", 1)
	attempts := ex.Policy.Retries + 1
	var lastErr error
	used := 0
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		used = a + 1
		v, err := runOnce(ex, ctx, key, a, fn)
		if err == nil {
			return v, nil
		}
		if err == ctx.Err() && err != nil {
			// Parent cancellation is the caller's signal, not a cell
			// fault: propagate without quarantining.
			return zero, err
		}
		lastErr = err
		if Classify(err) == ClassPermanent {
			break
		}
		if a < attempts-1 {
			telemetry.Add("resilience.retries", 1)
			sleepCtx(ctx, ex.backoff(key, a))
		}
	}
	return zero, ex.quarantine(key, used, lastErr)
}

// runOnce executes a single attempt on its own goroutine so panics are
// captured and a deadline overrun abandons the cell instead of hanging
// the pool. The abandoned goroutine is charged to the cell's deadline
// budget — there is no way to kill it, matching every Go watchdog.
func runOnce[V any](ex *Executor, ctx context.Context, key string, attempt int, fn func(context.Context) (V, error)) (V, error) {
	var zero V
	cctx := ctx
	cancel := func() {}
	if ex.Policy.CellTimeout > 0 {
		cctx, cancel = context.WithTimeout(ctx, ex.Policy.CellTimeout)
	}
	defer cancel()
	fault := FaultNone
	if ex.Chaos != nil {
		fault = ex.Chaos.Decide(key, attempt)
		if fault != FaultNone {
			telemetry.Add("resilience.chaos.injected", 1)
		}
	}
	type outcome struct {
		v   V
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				stack := debug.Stack()
				telemetry.Add("resilience.panics", 1)
				ch <- outcome{err: &panicError{val: p, pass: attributePass(stack), stack: stack}}
			}
		}()
		switch fault {
		case FaultPanic:
			panic("chaos: injected panic")
		case FaultTransient:
			ch <- outcome{err: Transient(errors.New("chaos: injected transient fault"))}
			return
		case FaultStall:
			// Stall past the cell deadline when one exists (the watchdog
			// below converts that into a deadline error); otherwise a
			// bounded sleep followed by a transient error.
			stallMax := 50 * time.Millisecond
			if d := ex.Policy.CellTimeout; d > 0 {
				stallMax = 2 * d
			}
			select {
			case <-cctx.Done():
				ch <- outcome{err: cctx.Err()}
			case <-time.After(stallMax):
				ch <- outcome{err: Transient(errors.New("chaos: injected stall"))}
			}
			return
		}
		v, err := fn(cctx)
		ch <- outcome{v: v, err: err}
	}()
	select {
	case o := <-ch:
		return o.v, o.err
	case <-cctx.Done():
		if err := ctx.Err(); err != nil {
			return zero, err // parent cancelled, not a cell fault
		}
		telemetry.Add("resilience.deadlines", 1)
		return zero, fmt.Errorf("cell deadline %v exceeded: %w",
			ex.Policy.CellTimeout, context.DeadlineExceeded)
	}
}

// backoff computes the deterministic attempt backoff: exponential from
// BackoffBase, capped at BackoffCap, with jitter in [0.5d, 1.0d) derived
// from (seed, key, attempt) — identical at any worker count.
func (ex *Executor) backoff(key string, attempt int) time.Duration {
	d := ex.Policy.BackoffBase << uint(attempt)
	if d > ex.Policy.BackoffCap || d <= 0 {
		d = ex.Policy.BackoffCap
	}
	h := hashParts(ex.Policy.Seed, "backoff", key, fmt.Sprint(attempt))
	frac := float64(h%1024) / 1024
	return d/2 + time.Duration(frac*float64(d/2))
}

// sleepCtx sleeps for d or until the context is cancelled.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// quarantine records the cell's terminal failure and returns the typed
// error callers test with IsQuarantined.
func (ex *Executor) quarantine(key string, attempts int, cause error) *CellError {
	ce := &CellError{Key: key, Kind: kindOf(cause), Attempts: attempts, Err: cause}
	var pe *panicError
	if errors.As(cause, &pe) {
		ce.Pass = pe.pass
	}
	ex.mu.Lock()
	if _, dup := ex.quarantined[key]; !dup {
		ex.quarantined[key] = ce
	}
	ex.mu.Unlock()
	telemetry.Add("resilience.quarantined", 1)
	return ce
}
