package resilience

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// quarantineOf returns ex's record for key, or nil.
func quarantineOf(ex *Executor, key string) *CellError {
	for _, ce := range ex.Quarantined() {
		if ce.Key == key {
			return ce
		}
	}
	return nil
}

// TestRunOnceUnderDefaultExecutor installs no executor: the one the
// process starts with runs every cell once and quarantines a panic or
// an error at once, while a cancelled parent is returned untouched.
func TestRunOnceUnderDefaultExecutor(t *testing.T) {
	ex := Active()
	if ex == nil {
		t.Fatal("no executor at process start")
	}
	cases := []struct {
		key  string
		fn   func() (int, error)
		kind Kind
	}{
		{"once-panic", func() (int, error) { panic("kaboom") }, KindPanic},
		{"once-error", func() (int, error) { return 7, errors.New("build failed") }, KindError},
	}
	for _, tc := range cases {
		calls := 0
		v, err := Run(context.Background(), tc.key, func(context.Context) (int, error) {
			calls++
			return tc.fn()
		})
		var ce *CellError
		if !errors.As(err, &ce) || ce.Kind != tc.kind || v != 0 {
			t.Fatalf("%s: v=%d err=%v, want a %s quarantine and the zero value", tc.key, v, err, tc.kind)
		}
		if calls != 1 {
			t.Fatalf("%s: fn ran %d times, want 1", tc.key, calls)
		}
		if rec := quarantineOf(ex, tc.key); rec == nil || rec.Kind != tc.kind {
			t.Fatalf("%s: executor holds no %s record of the quarantine", tc.key, tc.kind)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, "once-cancelled", func(context.Context) (int, error) {
		t.Fatal("fn must not run under a cancelled parent")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) || IsQuarantined(err) {
		t.Fatalf("err = %v, want the bare context.Canceled", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	_, err = Run(ctx, "once-cancelled-inside", func(ctx context.Context) (int, error) {
		cancel()
		return 0, fmt.Errorf("stopped: %w", ctx.Err())
	})
	if !errors.Is(err, context.Canceled) || IsQuarantined(err) {
		t.Fatalf("err = %v, want the cell's cancellation error unquarantined", err)
	}
	for _, key := range []string{"once-cancelled", "once-cancelled-inside"} {
		if quarantineOf(ex, key) != nil {
			t.Fatalf("parent cancellation quarantined %s", key)
		}
	}
}

// TestChaosFaultsRunOnce: a chaos-faulted cell never runs fn and
// quarantines as a panic or an error, per its second hash; a cell the
// schedule spares runs fn once and succeeds.
func TestChaosFaultsRunOnce(t *testing.T) {
	c := &Chaos{Rate: 0.5, Seed: 3}
	ex := NewExecutor(c)
	defer Install(Install(ex))
	kinds := map[Kind]int{}
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("cell-%02d", i)
		calls := 0
		v, err := Run(context.Background(), key, func(context.Context) (int, error) {
			calls++
			return 1, nil
		})
		switch fault := c.Decide(key); {
		case fault == FaultNone:
			if err != nil || v != 1 || calls != 1 {
				t.Fatalf("spared cell %s: v=%d err=%v calls=%d", key, v, err, calls)
			}
		default:
			var ce *CellError
			if !errors.As(err, &ce) || calls != 0 {
				t.Fatalf("faulted cell %s: err=%v calls=%d, want a quarantine without running fn", key, err, calls)
			}
			want := map[FaultKind]Kind{FaultPanic: KindPanic, FaultError: KindError}[fault]
			if ce.Kind != want {
				t.Fatalf("faulted cell %s quarantined as %s, want %s", key, ce.Kind, want)
			}
			kinds[ce.Kind]++
		}
	}
	if kinds[KindPanic] == 0 || kinds[KindError] == 0 {
		t.Fatalf("quarantine kinds %v, want both panics and errors", kinds)
	}
	if got := len(ex.Quarantined()); got != kinds[KindPanic]+kinds[KindError] {
		t.Fatalf("registry has %d cells, observed %v", got, kinds)
	}
	var b1, b2 strings.Builder
	ex.WriteReport(&b1)
	ex.WriteReport(&b2)
	if b1.String() != b2.String() {
		t.Fatal("quarantine report not stable")
	}
	if !strings.HasPrefix(b1.String(), fmt.Sprintf("QUARANTINED(%d)\n", len(ex.Quarantined()))) {
		t.Fatalf("report header wrong:\n%s", b1.String())
	}
}

func TestRunCapturesPanic(t *testing.T) {
	ex := NewExecutor(nil)
	defer Install(Install(ex))
	calls := 0
	_, err := Run(context.Background(), "cell-a", func(context.Context) (int, error) {
		calls++
		panic("kaboom")
	})
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v is not a CellError", err)
	}
	if ce.Kind != KindPanic {
		t.Fatalf("kind = %s, want panic", ce.Kind)
	}
	if calls != 1 {
		t.Fatalf("panicking cell ran %d times, want 1", calls)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("quarantine error hides the panic value: %v", err)
	}
	if got := len(ex.Quarantined()); got != 1 {
		t.Fatalf("quarantined = %d, want 1", got)
	}
}

func TestRunParentCancellationIsNotQuarantine(t *testing.T) {
	ex := NewExecutor(&Chaos{Rate: 1, Seed: 1})
	defer Install(Install(ex))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, "cell-cancel", func(context.Context) (int, error) {
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

func TestChaosDeterministicSchedule(t *testing.T) {
	c := &Chaos{Rate: 0.3, Seed: 99}
	c2 := &Chaos{Rate: 0.3, Seed: 99}
	faulted, panics := 0, 0
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("cell-%04d", i)
		k := c.Decide(key)
		if k != c2.Decide(key) {
			t.Fatalf("key %s: schedule differs across instances", key)
		}
		if k != FaultNone {
			faulted++
		}
		if k == FaultPanic {
			panics++
		}
	}
	// ~30% of cells faulted, about half of those as panics.
	if faulted < 400 || faulted > 800 {
		t.Fatalf("faulted %d of 2000 at rate 0.3", faulted)
	}
	if panics == 0 || panics == faulted {
		t.Fatalf("panics = %d of %d faults, want a strict subset", panics, faulted)
	}
	var none *Chaos
	if none.Decide("cell-0000") != FaultNone {
		t.Fatal("a nil Chaos injected a fault")
	}
}

// TestChaosKeysIndependent: keys that differ only in their last
// character get independent decisions. Over cell-00..cell-99 at rate
// 0.5, no block of ten keys sharing a prefix is faulted (or spared) as
// a whole, and the fault kinds of neighbouring faulted keys do not
// alternate with the last digit.
func TestChaosKeysIndependent(t *testing.T) {
	for _, seed := range []uint64{1, 3, 8} {
		c := &Chaos{Rate: 0.5, Seed: seed}
		pairs, alternating := 0, 0
		for tens := 0; tens < 10; tens++ {
			var d [10]FaultKind
			faulted := 0
			for ones := range d {
				if d[ones] = c.Decide(fmt.Sprintf("cell-%d%d", tens, ones)); d[ones] != FaultNone {
					faulted++
				}
			}
			if faulted == 0 || faulted == 10 {
				t.Errorf("seed %d: cell-%d0..cell-%d9 share one decision (%d of 10 faulted)", seed, tens, tens, faulted)
			}
			for ones := 0; ones < 9; ones++ {
				if d[ones] != FaultNone && d[ones+1] != FaultNone {
					pairs++
					if d[ones] != d[ones+1] {
						alternating++
					}
				}
			}
		}
		if pairs == 0 || alternating == pairs {
			t.Errorf("seed %d: kinds differ in %d of %d neighbouring faulted pairs, want some alike", seed, alternating, pairs)
		}
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
	if Active() == nil {
		t.Fatal("no executor installed at test start")
	}
	ex := NewExecutor(nil)
	prev := Install(ex)
	defer Install(prev)
	if Active() != ex {
		t.Fatal("Install did not take")
	}
	Install(nil)
	if Active() == nil || Active() == ex {
		t.Fatal("Install(nil) must install a fresh executor")
	}
}

func TestAttributePass(t *testing.T) {
	stack := []byte(`goroutine 7 [running]:
debugtuner/internal/passes.LICM(0xc0000b2000, 0x1)
	/src/internal/passes/licm.go:42 +0x19
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
		ex := NewExecutor(&Chaos{Rate: 0.16, Seed: 1})
		defer Install(Install(ex))
		sem := make(chan struct{}, par)
		var wg sync.WaitGroup
		for i := 0; i < 40; i++ {
			key := fmt.Sprintf("cell-%02d", i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				_, _ = Run(context.Background(), key, func(context.Context) (int, error) {
					return 1, nil
				})
			}()
		}
		wg.Wait()
		var b strings.Builder
		ex.WriteReport(&b)
		return b.String()
	}
	r1, r8 := run(1), run(8)
	if r1 != r8 {
		t.Fatalf("quarantine report depends on concurrency:\n-- j1 --\n%s\n-- j8 --\n%s", r1, r8)
	}
	if r1 == "" {
		t.Fatal("rate 0.16 quarantined none of 40 cells; the test exercises no registry")
	}
}
