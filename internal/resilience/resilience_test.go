package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"debugtuner/internal/ir"
	"debugtuner/internal/vm"
)

// fastPolicy keeps test retries near-instant.
func fastPolicy(retries int) Policy {
	return Policy{
		Retries:     retries,
		BackoffBase: time.Microsecond,
		BackoffCap:  10 * time.Microsecond,
	}
}

func TestRunNilExecutorIsDirectCall(t *testing.T) {
	called := 0
	v, err := Run(nil, context.Background(), "k", func(context.Context) (int, error) {
		called++
		return 42, nil
	})
	if err != nil || v != 42 || called != 1 {
		t.Fatalf("v=%d err=%v called=%d", v, err, called)
	}
}

func TestRunCapturesPanic(t *testing.T) {
	ex := NewExecutor(fastPolicy(1))
	calls := 0
	_, err := Run(ex, context.Background(), "cell-a", func(context.Context) (int, error) {
		calls++
		panic("kaboom")
	})
	if err == nil {
		t.Fatal("expected quarantine error")
	}
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a CellError", err)
	}
	if ce.Kind != KindPanic {
		t.Fatalf("kind = %s, want panic", ce.Kind)
	}
	if calls != 2 {
		t.Fatalf("panicking cell ran %d times, want 2 (1 retry)", calls)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("quarantine error hides the panic value: %v", err)
	}
	if got := len(ex.Quarantined()); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
}

func TestRunRetriesTransientThenSucceeds(t *testing.T) {
	ex := NewExecutor(fastPolicy(2))
	calls := 0
	v, err := Run(ex, context.Background(), "cell-b", func(context.Context) (int, error) {
		calls++
		if calls == 1 {
			return 0, Transient(errors.New("flaky"))
		}
		return 7, nil
	})
	if err != nil || v != 7 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
	if len(ex.Quarantined()) != 0 {
		t.Fatal("recovered cell must not be quarantined")
	}
}

func TestBudgetErrorsArePermanent(t *testing.T) {
	for _, berr := range []error{vm.ErrStepBudget, vm.ErrHeapBudget, ir.ErrStepLimit, ir.ErrHeapBudget} {
		if Classify(berr) != ClassPermanent {
			t.Fatalf("%v classified transient, want permanent", berr)
		}
		// And through a wrap, as call sites return them.
		if Classify(fmt.Errorf("trace: %w", berr)) != ClassPermanent {
			t.Fatalf("wrapped %v classified transient", berr)
		}
	}
	if !errors.Is(vm.ErrHeapBudget, vm.ErrBudget) || !errors.Is(ir.ErrHeapBudget, ir.ErrBudget) {
		t.Fatal("heap budget sentinels must match the base budget sentinel via errors.Is")
	}
	ex := NewExecutor(fastPolicy(3))
	calls := 0
	_, err := Run(ex, context.Background(), "cell-budget", func(context.Context) (int, error) {
		calls++
		return 0, vm.ErrStepBudget
	})
	if calls != 1 {
		t.Fatalf("permanent failure retried %d times, want 1 attempt total", calls)
	}
	var ce *CellError
	if !errors.As(err, &ce) || ce.Kind != KindPermanent {
		t.Fatalf("err = %v, want permanent CellError", err)
	}
}

func TestRunDeadline(t *testing.T) {
	p := fastPolicy(1)
	p.CellTimeout = 20 * time.Millisecond
	ex := NewExecutor(p)
	release := make(chan struct{})
	defer close(release)
	start := time.Now()
	_, err := Run(ex, context.Background(), "cell-slow", func(context.Context) (int, error) {
		<-release // stalls well past the deadline on every attempt
		return 0, nil
	})
	elapsed := time.Since(start)
	var ce *CellError
	if !errors.As(err, &ce) || ce.Kind != KindDeadline {
		t.Fatalf("err = %v, want deadline CellError", err)
	}
	if ce.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (deadline is transient)", ce.Attempts)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("deadline enforcement took %v", elapsed)
	}
}

func TestRunParentCancellationIsNotQuarantine(t *testing.T) {
	ex := NewExecutor(fastPolicy(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ex, ctx, "cell-cancel", func(context.Context) (int, error) {
		t.Fatal("fn must not run under a cancelled parent")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(ex.Quarantined()) != 0 {
		t.Fatal("parent cancellation must not quarantine the cell")
	}
}

func TestBackoffDeterministicAndCapped(t *testing.T) {
	p := DefaultPolicy()
	p.Seed = 11
	ex := NewExecutor(p)
	ex2 := NewExecutor(p)
	for a := 0; a < 8; a++ {
		d1 := ex.backoff("cell-x", a)
		d2 := ex2.backoff("cell-x", a)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff %v != %v across executors", a, d1, d2)
		}
		if d1 > p.BackoffCap {
			t.Fatalf("attempt %d: backoff %v exceeds cap %v", a, d1, p.BackoffCap)
		}
		if d1 <= 0 {
			t.Fatalf("attempt %d: non-positive backoff %v", a, d1)
		}
	}
	if ex.backoff("cell-x", 0) == ex.backoff("cell-y", 0) {
		t.Log("identical jitter for two keys (possible, but suspicious)")
	}
}

func TestChaosDeterministicSchedule(t *testing.T) {
	c := &Chaos{Rate: 0.3, Seed: 99}
	c2 := &Chaos{Rate: 0.3, Seed: 99}
	faulted, quarantineClass := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("cell-%04d", i)
		k0 := c.Decide(key, 0)
		if k0 != c2.Decide(key, 0) {
			t.Fatalf("key %s: schedule differs across instances", key)
		}
		if k0 != FaultNone {
			faulted++
			if c.Decide(key, 1) != FaultNone {
				quarantineClass++
			}
		}
	}
	// ~30% of cells faulted, ~2/5 of those on every attempt.
	if faulted < 400 || faulted > 800 {
		t.Fatalf("faulted %d of 2000 at rate 0.3", faulted)
	}
	if quarantineClass == 0 || quarantineClass == faulted {
		t.Fatalf("always-faults = %d of %d, want a strict subset", quarantineClass, faulted)
	}
	if other := (&Chaos{Rate: 0.3, Seed: 100}).Decide("cell-0000", 0); other == c.Decide("cell-0000", 0) {
		t.Log("same decision under different seed for one key (possible)")
	}
}

func TestChaosRetryAndQuarantinePaths(t *testing.T) {
	// Drive enough cells through a chaotic executor that both schedules
	// (fail-once → recovered, fail-always → quarantined) occur.
	p := fastPolicy(2)
	ex := NewExecutor(p)
	ex.Chaos = &Chaos{Rate: 0.5, Seed: 3}
	recovered, quarantined := 0, 0
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("cell-%02d", i)
		calls := 0
		_, err := Run(ex, context.Background(), key, func(context.Context) (int, error) {
			calls++
			return 1, nil
		})
		switch {
		case err == nil && calls == 0:
			recovered++ // chaos consumed attempt 0 before fn ran
		case err == nil:
		case IsQuarantined(err):
			quarantined++
		default:
			t.Fatalf("cell %s: unexpected error %v", key, err)
		}
	}
	if quarantined == 0 {
		t.Fatal("no cell quarantined at rate 0.5")
	}
	if got := len(ex.Quarantined()); got != quarantined {
		t.Fatalf("registry has %d cells, observed %d", got, quarantined)
	}
	// The registry report is sorted and stable.
	var b1, b2 strings.Builder
	ex.WriteReport(&b1)
	ex.WriteReport(&b2)
	if b1.String() != b2.String() {
		t.Fatal("quarantine report not stable")
	}
	if !strings.HasPrefix(b1.String(), fmt.Sprintf("QUARANTINED(%d)\n", quarantined)) {
		t.Fatalf("report header wrong:\n%s", b1.String())
	}
}

func TestParseChaos(t *testing.T) {
	c, err := ParseChaos("rate=0.25,seed=7")
	if err != nil || c.Rate != 0.25 || c.Seed != 7 {
		t.Fatalf("c=%+v err=%v", c, err)
	}
	for _, bad := range []string{"", "rate=2", "rate=0.1,seed=x", "nope=1", "rate"} {
		if _, err := ParseChaos(bad); err == nil {
			t.Fatalf("ParseChaos(%q) accepted", bad)
		}
	}
}

func TestInstallActive(t *testing.T) {
	if Active() != nil {
		t.Fatal("executor installed at test start")
	}
	ex := NewExecutor(DefaultPolicy())
	prev := Install(ex)
	defer Install(prev)
	if Active() != ex {
		t.Fatal("Install did not take")
	}
}

func TestAttributePass(t *testing.T) {
	stack := []byte(`goroutine 7 [running]:
debugtuner/internal/passes.LICM(0xc0000b2000, 0x1)
	/root/repo/internal/passes/licm.go:42 +0x19
debugtuner/internal/pipeline.Build(...)
`)
	if got := attributePass(stack); got != "LICM" {
		t.Fatalf("attributePass = %q, want LICM", got)
	}
	if got := attributePass([]byte("no pass frames here")); got != "" {
		t.Fatalf("attributePass on foreign stack = %q, want empty", got)
	}
}

func TestRunConcurrentCellsDeterministicRegistry(t *testing.T) {
	// The same chaotic matrix run with different concurrency must end in
	// the same quarantine registry.
	run := func(par int) string {
		ex := NewExecutor(fastPolicy(1))
		ex.Chaos = &Chaos{Rate: 0.4, Seed: 8}
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("cell-%02d", i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				_, _ = Run(ex, context.Background(), key, func(context.Context) (int, error) {
					return 1, nil
				})
			}()
		}
		wg.Wait()
		var b strings.Builder
		ex.WriteReport(&b)
		return b.String()
	}
	if r1, r8 := run(1), run(8); r1 != r8 {
		t.Fatalf("quarantine report depends on concurrency:\n-- j1 --\n%s\n-- j8 --\n%s", r1, r8)
	}
}
