package evalcache

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"debugtuner/internal/telemetry"
)

// testKey is the key type of the tests' stored caches.
type testKey struct{ K string }

// useDisk installs d as the process store for the rest of the test.
func useDisk(t *testing.T, d *Disk) {
	prev := DefaultDisk()
	SetDefaultDisk(d)
	t.Cleanup(func() { SetDefaultDisk(prev) })
}

func TestDoComputesOncePerKey(t *testing.T) {
	var c Cache[string, int]
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
	var c Cache[string, string]
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
	var c Cache[string, int]
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
	var c Cache[string, int]
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

// TestDoPanicLeavesNoEntry: a compute that panics must not leave its
// zero value behind as a result. A request coalesced on it gets an
// Uncacheable error, not (0, nil), and the next request computes again.
func TestDoPanicLeavesNoEntry(t *testing.T) {
	snk := telemetry.NewSink()
	defer telemetry.Install(telemetry.Install(snk))
	var c Cache[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Do("k", func() (int, error) {
			close(started)
			<-release
			panic("build exploded")
		})
	}()
	<-started
	type result struct {
		v   int
		err error
	}
	waiter := make(chan result, 1)
	go func() {
		v, err := c.Do("k", func() (int, error) { return 0, errors.New("waiter computed") })
		waiter <- result{v, err}
	}()
	// Once the waiter counts as coalesced it holds the in-flight entry.
	for snk.Counter("evalcache.coalesced") == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if p := <-recovered; p != "build exploded" {
		t.Fatalf("computing goroutine recovered %v, want the compute's panic", p)
	}
	w := <-waiter
	var u interface{ Uncacheable() bool }
	if !errors.As(w.err, &u) || !u.Uncacheable() {
		t.Fatalf("coalesced waiter got (%d, %v), want an uncacheable error", w.v, w.err)
	}
	calls := 0
	v, err := c.Do("k", func() (int, error) {
		calls++
		return 42, nil
	})
	if err != nil || v != 42 || calls != 1 {
		t.Fatalf("after the panic Do = (%d, %v) with %d computes, want (42, nil) from one", v, err, calls)
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
	useDisk(t, d)
	c := Cache[testKey, int]{Namespace: "ns"}
	calls := 0
	for i := 0; i < 2; i++ {
		v, err := c.Do(testKey{"gap"}, func() (int, error) {
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

// encKey has a field of every kind a stored key may hold.
type encKey struct {
	Name   string
	Src    uint64
	Budget int64
	Execs  int
	Verify bool
	Config string
}

// TestEncodeKey: the store key renders each field's value in
// declaration order and nothing else, is the same for equal keys, and
// differs whenever one field does, including when a '|' or '\' inside
// a string moves between fields.
func TestEncodeKey(t *testing.T) {
	base := encKey{Name: "zlib", Src: 0x5eed, Budget: -1, Execs: 120, Verify: true, Config: "gcc/O2/-dce"}
	if got, want := encodeKey("ns", base), "ns|zlib|5eed|-1|120|true|gcc/O2/-dce"; got != want {
		t.Fatalf("encodeKey = %q, want %q", got, want)
	}
	if encodeKey("ns", base) != encodeKey("ns", base) {
		t.Fatal("equal keys encode differently")
	}
	perturbed := []encKey{
		{Name: "zlib'", Src: 0x5eed, Budget: -1, Execs: 120, Verify: true, Config: "gcc/O2/-dce"},
		{Name: "zlib", Src: 0x5eee, Budget: -1, Execs: 120, Verify: true, Config: "gcc/O2/-dce"},
		{Name: "zlib", Src: 0x5eed, Budget: 0, Execs: 120, Verify: true, Config: "gcc/O2/-dce"},
		{Name: "zlib", Src: 0x5eed, Budget: -1, Execs: 121, Verify: true, Config: "gcc/O2/-dce"},
		{Name: "zlib", Src: 0x5eed, Budget: -1, Execs: 120, Verify: false, Config: "gcc/O2/-dce"},
		{Name: "zlib", Src: 0x5eed, Budget: -1, Execs: 120, Verify: true, Config: "gcc/O2"},
	}
	for i, k := range perturbed {
		if encodeKey("ns", k) == encodeKey("ns", base) {
			t.Errorf("changing field %d leaves the key at %q", i, encodeKey("ns", base))
		}
	}
	type pair struct{ A, B string }
	seen := map[string]pair{}
	for _, p := range []pair{{"a|b", "c"}, {"a", "b|c"}, {`a\`, "|c"}, {`a\|`, "c"}, {"a", `\|c`}, {`a|\`, "c"}} {
		enc := encodeKey("ns", p)
		if q, ok := seen[enc]; ok {
			t.Errorf("%+v and %+v both encode to %q", p, q, enc)
		}
		seen[enc] = p
	}
}

// TestStoredKeyMustBeAStruct: a stored cache panics at its first Do
// when its key is not a struct of string, integer and bool fields, or
// its namespace holds the separator; a memory-only cache takes any
// comparable key.
func TestStoredKeyMustBeAStruct(t *testing.T) {
	mustPanic := func(name string, do func()) {
		t.Helper()
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), "evalcache:") {
				t.Errorf("%s: recovered %v, want the key check's panic", name, p)
			}
		}()
		do()
	}
	one := func() (int, error) { return 1, nil }
	mustPanic("string key", func() { (&Cache[string, int]{Namespace: "ns"}).Do("k", one) })
	mustPanic("float field", func() { (&Cache[struct{ F float64 }, int]{Namespace: "ns"}).Do(struct{ F float64 }{}, one) })
	mustPanic("nested struct", func() { (&Cache[struct{ K testKey }, int]{Namespace: "ns"}).Do(struct{ K testKey }{}, one) })
	mustPanic("separator", func() { (&Cache[testKey, int]{Namespace: "a|b"}).Do(testKey{}, one) })
	if v, err := (&Cache[string, int]{}).Do("k", one); v != 1 || err != nil {
		t.Fatalf("memory-only string key: %d, %v", v, err)
	}
}
