// Package workerpool is the bounded fan-out primitive shared by every
// parallel evaluation loop: the tuner's (program × pass) build matrix,
// the suite evaluator's (subject × config) cells (suite.Evaluate), the
// experiments table generators, and testsuite.LoadAll.
//
// The design constraints come from DebugTuner's determinism requirement
// (§III rankings must not depend on scheduling): Map always returns
// results in input order, so callers aggregate exactly as the serial
// loops did, and the first error — by input index, not by completion
// time — cancels the pool and is the one returned.
package workerpool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"debugtuner/internal/telemetry"
)

// workers holds the process-wide override set by the -j flag;
// 0 means "auto" (GOMAXPROCS).
var workers atomic.Int64

// SetWorkers fixes the process-wide worker count. n <= 0 restores the
// automatic default of runtime.GOMAXPROCS(0).
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workers.Store(int64(n))
}

// Workers returns the effective worker count.
func Workers() int {
	if n := workers.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// PanicError is a panic captured from one Map task outside any
// resilience cell (a cell's own panic quarantines inside
// resilience.Run and never reaches the pool). Instead of unwinding
// through the pool and killing the process, it cancels the pool like
// any other first error, carrying the task index and stack.
type PanicError struct {
	// Index is the input index of the panicking task.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("task %d panicked: %v", e.Index, e.Value)
}

// call invokes fn on one item with panics converted to *PanicError.
func call[T, R any](ctx context.Context, idx int, item T, fn func(ctx context.Context, idx int, item T) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			telemetry.Add("workerpool.panics", 1)
			err = &PanicError{Index: idx, Value: p, Stack: debug.Stack()}
		}
	}()
	return fn(ctx, idx, item)
}

// Map applies fn to every item on up to Workers() goroutines and returns
// the results in input order. The first failing item (lowest input
// index among observed failures) cancels the derived context passed to
// the remaining calls, and its error is returned. With one worker (or
// one item) Map degenerates to the exact serial loop.
func Map[T, R any](ctx context.Context, items []T, fn func(ctx context.Context, idx int, item T) (R, error)) ([]R, error) {
	if len(items) == 0 {
		return nil, ctx.Err()
	}
	n := Workers()
	if n > len(items) {
		n = len(items)
	}
	results := make([]R, len(items))
	if n <= 1 {
		// Serial inline path: no goroutine and no derived context — fn
		// receives the caller's ctx unchanged and runs on the calling
		// goroutine, so single-worker runs are byte-for-byte the serial
		// loop (the determinism baseline -j1 is compared against).
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := call(ctx, i, item, fn)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	pctx := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next    atomic.Int64
		errMu   sync.Mutex
		errIdx  = -1
		poolErr error
		wg      sync.WaitGroup
	)
	snk := telemetry.Active()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var busy time.Duration
			if snk != nil {
				defer func() {
					snk.Add("workerpool.busy_ns", busy.Nanoseconds())
					snk.Add("workerpool.worker."+strconv.Itoa(worker)+".busy_ns",
						busy.Nanoseconds())
				}()
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) || ctx.Err() != nil {
					return
				}
				var t0 time.Time
				if snk != nil {
					// Remaining undispatched items approximate queue
					// depth at the moment this worker takes one.
					snk.Max("workerpool.queue", int64(len(items)-i))
					t0 = time.Now()
				}
				r, err := call(ctx, i, items[i], fn)
				if snk != nil {
					busy += time.Since(t0)
					snk.Add("workerpool.items", 1)
				}
				if err != nil {
					errMu.Lock()
					if errIdx < 0 || i < errIdx {
						errIdx, poolErr = i, err
					}
					errMu.Unlock()
					cancel()
					return
				}
				results[i] = r
			}
		}(w)
	}
	wg.Wait()
	if errIdx >= 0 {
		return nil, poolErr
	}
	if err := pctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

// ForEach is Map without per-item results.
func ForEach[T any](ctx context.Context, items []T, fn func(ctx context.Context, idx int, item T) error) error {
	_, err := Map(ctx, items, func(ctx context.Context, idx int, item T) (struct{}, error) {
		return struct{}{}, fn(ctx, idx, item)
	})
	return err
}
