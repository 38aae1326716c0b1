package evalcache

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestDoComputesOncePerKey(t *testing.T) {
	var c Cache[int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.Do("k", func() (int, error) {
				calls.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = (%d, %v)", v, err)
			}
		}()
	}
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestDoDistinctKeys(t *testing.T) {
	var c Cache[string]
	a, _ := c.Do("a", func() (string, error) { return "va", nil })
	b, _ := c.Do("b", func() (string, error) { return "vb", nil })
	if a != "va" || b != "vb" {
		t.Fatalf("got (%q, %q)", a, b)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestDoCachesErrors(t *testing.T) {
	var c Cache[int]
	sentinel := errors.New("measurement failed")
	calls := 0
	for i := 0; i < 3; i++ {
		_, err := c.Do("bad", func() (int, error) {
			calls++
			return 0, sentinel
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("err = %v, want sentinel", err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed compute retried %d times, want 1", calls)
	}
}

type evictErr struct{ msg string }

func (e *evictErr) Error() string     { return e.msg }
func (e *evictErr) Uncacheable() bool { return true }

func TestDoEvictsUncacheableErrors(t *testing.T) {
	var c Cache[int]
	calls := 0
	for i := 0; i < 2; i++ {
		_, err := c.Do("quarantined", func() (int, error) {
			calls++
			return 0, &evictErr{msg: "cell quarantined"}
		})
		var u interface{ Uncacheable() bool }
		if !errors.As(err, &u) {
			t.Fatalf("err = %v, want uncacheable", err)
		}
	}
	if calls != 2 {
		t.Fatalf("uncacheable failure memoized: %d calls, want 2", calls)
	}
	if c.Len() != 0 {
		t.Fatalf("evicted entry still resident: Len = %d", c.Len())
	}
	// A later success on the same key is cached normally.
	v, err := c.Do("quarantined", func() (int, error) { return 9, nil })
	if err != nil || v != 9 {
		t.Fatalf("v=%d err=%v", v, err)
	}
	v, err = c.Do("quarantined", func() (int, error) {
		t.Error("successful result recomputed")
		return 0, nil
	})
	if err != nil || v != 9 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

// TestDoUnstored: a compute that returns Unstored hands its value to the
// caller with a nil error, and the value is neither memoized nor written
// to disk, so the next request recomputes.
func TestDoUnstored(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var c Cache[int]
	c.SetDisk(d, "ns")
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := c.Do("gap", func() (int, error) {
			calls++
			return 0, Unstored[int]{Value: 7}
		})
		if err != nil || v != 7 {
			t.Fatalf("v=%d err=%v, want 7 and no error", v, err)
		}
	}
	if calls != 2 || c.Len() != 0 {
		t.Fatalf("unstored value memoized: %d calls, Len %d", calls, c.Len())
	}
	var got int
	if d.Get("ns|gap", &got) {
		t.Fatal("unstored value reached the disk")
	}
}
