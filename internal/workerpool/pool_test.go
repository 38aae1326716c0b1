package workerpool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapPreservesOrder(t *testing.T) {
	SetWorkers(8)
	defer SetWorkers(0)
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	got, err := Map(context.Background(), items, func(_ context.Context, idx int, item int) (int, error) {
		if idx != item {
			t.Errorf("idx %d != item %d", idx, item)
		}
		return item * item, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	SetWorkers(3)
	defer SetWorkers(0)
	var cur, peak atomic.Int64
	items := make([]int, 64)
	_, err := Map(context.Background(), items, func(_ context.Context, _ int, _ int) (int, error) {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("peak concurrency %d exceeds 3 workers", p)
	}
}

func TestMapFirstErrorWinsAndCancels(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	items := make([]int, 32)
	var cancelled atomic.Bool
	_, err := Map(context.Background(), items, func(ctx context.Context, idx int, _ int) (int, error) {
		if idx == 3 {
			return 0, fmt.Errorf("boom at %d", idx)
		}
		if idx == 5 {
			// A later failure must not displace the earlier one.
			return 0, fmt.Errorf("boom at %d", idx)
		}
		select {
		case <-ctx.Done():
			cancelled.Store(true)
		case <-time.After(50 * time.Millisecond):
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if err.Error() != "boom at 3" {
		t.Fatalf("got %q, want the lowest-index error", err)
	}
	if !cancelled.Load() {
		t.Error("in-flight items never observed cancellation")
	}
}

func TestMapParentCancellation(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, make([]int, 8), func(context.Context, int, int) (int, error) {
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestMapSerialFallback(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	var mu sync.Mutex
	var order []int
	_, err := Map(context.Background(), []int{0, 1, 2, 3}, func(_ context.Context, idx int, _ int) (int, error) {
		mu.Lock()
		order = append(order, idx)
		mu.Unlock()
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial mode ran out of order: %v", order)
		}
	}
}

func TestSetWorkers(t *testing.T) {
	SetWorkers(7)
	if Workers() != 7 {
		t.Fatalf("Workers() = %d, want 7", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("auto Workers() = %d, want >= 1", Workers())
	}
	SetWorkers(-3)
	if Workers() < 1 {
		t.Fatalf("negative SetWorkers broke auto mode: %d", Workers())
	}
}

func TestMapPanicCaptured(t *testing.T) {
	for _, n := range []int{1, 4} {
		SetWorkers(n)
		_, err := Map(context.Background(), []int{0, 1, 2, 3}, func(_ context.Context, idx int, _ int) (int, error) {
			if idx == 2 {
				panic("pass exploded")
			}
			return idx, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *PanicError", n, err)
		}
		if pe.Index != 2 || fmt.Sprint(pe.Value) != "pass exploded" {
			t.Fatalf("workers=%d: PanicError = %+v", n, pe)
		}
		if len(pe.Stack) == 0 {
			t.Fatalf("workers=%d: panic stack not captured", n)
		}
	}
	SetWorkers(0)
}

// TestMapTaskTimeoutDisabledPassesCtxThrough: the pool sets no per-task
// deadline, so the serial path hands fn the caller's context itself.
func TestMapTaskTimeoutDisabledPassesCtxThrough(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	parent := context.Background()
	_, err := Map(parent, []int{0}, func(ctx context.Context, _ int, _ int) (int, error) {
		if ctx != parent {
			t.Error("serial path derived a context")
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMapCancellationPromptNoLeak is the satellite coverage for parent
// cancellation: Map must return promptly once the parent context is
// cancelled mid-run, the serial and parallel paths must agree on the
// returned error, and no worker goroutine may outlive the call.
func TestMapCancellationPromptNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, n := range []int{1, 4} {
		SetWorkers(n)
		ctx, cancel := context.WithCancel(context.Background())
		items := make([]int, 256)
		var started atomic.Int64
		go func() {
			// Cancel once work is demonstrably in flight.
			for started.Load() == 0 {
				time.Sleep(time.Millisecond)
			}
			cancel()
		}()
		start := time.Now()
		_, err := Map(ctx, items, func(ctx context.Context, _ int, _ int) (int, error) {
			started.Add(1)
			select {
			case <-ctx.Done():
				return 0, ctx.Err()
			case <-time.After(5 * time.Millisecond):
				return 0, nil
			}
		})
		elapsed := time.Since(start)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", n, err)
		}
		// 256 items x 5ms would be ~1.3s serially; prompt cancellation
		// must come back far sooner.
		if elapsed > time.Second {
			t.Fatalf("workers=%d: cancellation took %v", n, elapsed)
		}
		cancel()
	}
	SetWorkers(0)
	// All worker goroutines must have exited by the time Map returned;
	// allow the count a moment to settle (the test's own cancel goroutine
	// and runtime housekeeping).
	deadline := time.Now().Add(2 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d now vs %d at start", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
