// Package evalcache is the content-addressed result cache of the
// evaluation engine. Each cache holds one kind of cell — a build's
// TextHash and hybrid scores in the tuner, ref-workload cycle counts in
// specsuite, a subject's difftest findings — under its declared key
// type, so table generators that revisit the same Ox-dy configuration
// (Fig2, Tables VIII–X) reuse one build+trace instead of redoing it.
//
// Do has singleflight semantics: concurrent workers asking for the same
// key block on a single computation instead of duplicating it, which is
// what makes the cache composable with the worker pool. Acquisitions
// that find the cache's lock held are counted (evalcache.contended).
//
// A cache that declares a Namespace also keeps its successful results
// in the process store (see Disk), making warm reruns skip the
// build+trace entirely. The store is also how an interrupted run
// resumes: rerun it on the same store, and every cell the first run
// completed is read back instead of recomputed.
package evalcache

import (
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"debugtuner/internal/telemetry"
)

type entry[V any] struct {
	once sync.Once
	done atomic.Bool
	val  V
	err  error
}

// Cache memoizes computations keyed by K. The zero value is a
// memory-only cache, ready to use.
type Cache[K comparable, V any] struct {
	// Namespace, when set, makes the cache a stored one: a memory miss
	// consults the process store (DefaultDisk) before computing, and a
	// successful compute is written through. K must then be a struct of
	// string, integer and bool fields declaring every input of a cell,
	// so a stored value is valid exactly when an equal-keyed recompute
	// would produce it; V must round-trip through encoding/json. The
	// namespace names the cache in telemetry (diskcache.<ns>.hit, .miss,
	// .write) and must not contain '|'.
	Namespace string

	mu sync.Mutex
	m  map[K]*entry[V]

	// stored validates K against the namespace once, at first use, and
	// names the cache's store counters.
	stored           sync.Once
	hit, miss, write string
}

// uncacheable matches errors that must not be memoized. The resilience
// layer's CellError implements it: a quarantined cell's failure may be
// environmental, and pinning it in the cache would make a rerun return
// the stale failure instead of recomputing.
type uncacheable interface{ Uncacheable() bool }

// Unstored carries a value that must be used but never kept: a compute
// returns it as its error when the value has a quarantine gap inside it
// that a rerun may fill. Do hands every waiter the value with a nil
// error, writes nothing to disk and evicts the entry, so the next
// request (in this process or a rerun) recomputes.
type Unstored[V any] struct{ Value V }

func (Unstored[V]) Error() string     { return "evalcache: value not kept" }
func (Unstored[V]) Uncacheable() bool { return true }

// lock acquires the cache lock, counting contended acquisitions.
func (c *Cache[K, V]) lock() {
	if c.mu.TryLock() {
		return
	}
	telemetry.Add("evalcache.contended", 1)
	c.mu.Lock()
}

// Do returns the cached value for k, computing it at most once across
// all goroutines. Errors are cached as well: the evaluation treats most
// measurement failures as deterministic, so retrying a failed key is
// not useful. The exception is errors marked Uncacheable() (quarantined
// cells, Unstored values) — those evict their entry so a later request
// recomputes.
//
// In a stored cache, a memory miss consults the process store before
// computing, and a successful compute is written through; errors never
// persist.
func (c *Cache[K, V]) Do(k K, compute func() (V, error)) (V, error) {
	if c.Namespace != "" {
		c.stored.Do(func() {
			checkKey(c.Namespace, reflect.TypeFor[K]())
			p := "diskcache." + c.Namespace + "."
			c.hit, c.miss, c.write = p+"hit", p+"miss", p+"write"
		})
	}
	c.lock()
	if c.m == nil {
		c.m = map[K]*entry[V]{}
	}
	e := c.m[k]
	hit := e != nil
	if e == nil {
		e = &entry[V]{}
		c.m[k] = e
	}
	c.mu.Unlock()
	if snk := telemetry.Active(); snk != nil {
		if hit {
			// A hit on an entry whose compute is still running is a
			// coalesced request: this caller blocks on the in-flight
			// computation rather than reusing a finished result.
			if e.done.Load() {
				snk.Add("evalcache.hit", 1)
			} else {
				snk.Add("evalcache.coalesced", 1)
			}
		} else {
			snk.Add("evalcache.miss", 1)
		}
	}
	e.once.Do(func() {
		e.val, e.err = c.load(k, compute)
		e.done.Store(true)
	})
	if e.err != nil {
		var u uncacheable
		if errors.As(e.err, &u) && u.Uncacheable() {
			c.lock()
			// Guard against a racing request that already replaced the
			// entry: only evict the one we observed.
			if c.m[k] == e {
				delete(c.m, k)
			}
			c.mu.Unlock()
			telemetry.Add("evalcache.evicted", 1)
		}
		if u, ok := e.err.(Unstored[V]); ok {
			return u.Value, nil
		}
	}
	return e.val, e.err
}

// load computes k's value, reading it from the process store instead
// when the cache is stored and the store holds it.
func (c *Cache[K, V]) load(k K, compute func() (V, error)) (V, error) {
	d := DefaultDisk()
	if c.Namespace == "" || d == nil {
		return compute()
	}
	key := encodeKey(c.Namespace, k)
	var v V
	if d.Get(key, &v) {
		telemetry.Add(c.hit, 1)
		return v, nil
	}
	telemetry.Add(c.miss, 1)
	v, err := compute()
	if err == nil && d.put(key, v) {
		telemetry.Add(c.write, 1)
	}
	return v, err
}

// Len reports how many keys have been requested (including in-flight
// ones), for tests and cache-effectiveness accounting.
func (c *Cache[K, V]) Len() int {
	c.lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// checkKey panics unless t can key the stored cache ns: a struct of
// string, integer and bool fields.
func checkKey(ns string, t reflect.Type) {
	if strings.Contains(ns, "|") {
		panic(fmt.Sprintf("evalcache: namespace %q contains '|'", ns))
	}
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("evalcache: stored cache %s is keyed by %s, not a struct", ns, t))
	}
	for i := 0; i < t.NumField(); i++ {
		switch f := t.Field(i); f.Type.Kind() {
		case reflect.String, reflect.Bool,
			reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		default:
			panic(fmt.Sprintf("evalcache: stored cache %s: key field %s.%s is a %s, not a string, integer or bool",
				ns, t, f.Name, f.Type))
		}
	}
}

// encodeKey renders a checked key for the store: the namespace, then
// each field's value in declaration order, each after a '|'. Strings
// escape '\' and '|' with a backslash, so for one key type the
// rendering is injective; signed integers are decimal, unsigned ones
// (the source and input hashes) hex, bools true or false. Field and
// type names are left out: a namespace has one key type.
func encodeKey(ns string, k any) string {
	v := reflect.ValueOf(k)
	b := make([]byte, 0, 96)
	b = append(b, ns...)
	for i := 0; i < v.NumField(); i++ {
		b = append(b, '|')
		switch f := v.Field(i); f.Kind() {
		case reflect.String:
			s := f.String()
			for j := 0; j < len(s); j++ {
				if s[j] == '|' || s[j] == '\\' {
					b = append(b, '\\')
				}
				b = append(b, s[j])
			}
		case reflect.Bool:
			b = strconv.AppendBool(b, f.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			b = strconv.AppendInt(b, f.Int(), 10)
		default:
			b = strconv.AppendUint(b, f.Uint(), 16)
		}
	}
	return string(b)
}
