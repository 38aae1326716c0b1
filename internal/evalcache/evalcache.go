// Package evalcache is the content-addressed result cache of the
// evaluation engine. Each cache holds one kind of cell — a build's
// TextHash and hybrid scores in the tuner, ref-workload cycle counts in
// specsuite, a subject's difftest findings — and its keys are built by
// one constructor over the cell's declared inputs (source hash, inputs
// digest, budgets, config fingerprint), so table generators that
// revisit the same Ox-dy configuration (Fig2, Tables VIII–X) reuse one
// build+trace instead of redoing it.
//
// Do has singleflight semantics: concurrent workers asking for the same
// key block on a single computation instead of duplicating it, which is
// what makes the cache composable with the worker pool. The key space
// is sharded 64 ways so parallel workers touching different keys do not
// serialize on one mutex; per-shard contention is counted and surfaced
// through telemetry (evalcache.contended, evalcache.shardNN.contended).
//
// A cache can additionally be bound to an on-disk store (see Disk) that
// persists successful results across processes, making warm reruns skip
// the build+trace entirely. The store is also how an interrupted run
// resumes: rerun it on the same store, and every cell the first run
// completed is read back instead of recomputed.
package evalcache

import (
	"errors"
	"fmt"
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

// numShards is the shard count of the key space. 64 keeps the worst
// observed lock hold (a map grow) off the other 63 lanes while staying
// small enough that Len/Contended stay cheap to aggregate.
const numShards = 64

type shard[V any] struct {
	mu sync.Mutex
	m  map[string]*entry[V]
	// contended counts lock acquisitions that found the shard lock
	// held — the signal the sharding exists to minimize.
	contended atomic.Int64
}

// lock acquires the shard lock, counting contended acquisitions.
func (s *shard[V]) lock(idx int) {
	if s.mu.TryLock() {
		return
	}
	s.contended.Add(1)
	if snk := telemetry.Active(); snk != nil {
		snk.Add("evalcache.contended", 1)
		snk.Add(fmt.Sprintf("evalcache.shard%02d.contended", idx), 1)
	}
	s.mu.Lock()
}

// Cache memoizes keyed computations. The zero value is ready to use.
type Cache[V any] struct {
	shards [numShards]shard[V]
	// disk, when set, is the persistent second level consulted on a
	// memory miss and written through on successful computes.
	disk atomic.Pointer[diskBinding]
}

// diskBinding scopes a cache's disk traffic: the namespace prefixes
// every key so distinct caches sharing one store cannot collide, and
// the cache counts its own disk hits, misses and writes.
type diskBinding struct {
	d                *Disk
	namespace        string
	hit, miss, write string
}

// SetDisk binds the cache to a persistent store. Keys are stored under
// the namespace (which must capture everything the in-memory key does
// not — subject identity, source hash), so the disk entry is valid
// exactly when an equal-keyed recompute would produce the same value.
// The namespace up to its first '|' names the cache in telemetry
// (diskcache.<name>.hit, .miss, .write), so per-run parameters such as
// a sample period or a budget go after it. V must round-trip through
// encoding/json. A nil Disk detaches.
func (c *Cache[V]) SetDisk(d *Disk, namespace string) {
	if d == nil {
		c.disk.Store(nil)
		return
	}
	name, _, _ := strings.Cut(namespace, "|")
	p := "diskcache." + name + "."
	c.disk.Store(&diskBinding{d: d, namespace: namespace,
		hit: p + "hit", miss: p + "miss", write: p + "write"})
}

// shardFor hashes the key onto a shard (FNV-1a).
func shardFor(key string) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % numShards)
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

// Do returns the cached value for key, computing it at most once across
// all goroutines. Errors are cached as well: the evaluation treats most
// measurement failures as deterministic, so retrying a failed key is
// not useful. The exception is errors marked Uncacheable() (quarantined
// cells, Unstored values) — those evict their entry so a later request
// recomputes.
//
// With a disk store attached, a memory miss consults the store before
// computing, and a successful compute is written through; errors never
// persist.
func (c *Cache[V]) Do(key string, compute func() (V, error)) (V, error) {
	idx := shardFor(key)
	s := &c.shards[idx]
	s.lock(idx)
	if s.m == nil {
		s.m = map[string]*entry[V]{}
	}
	e := s.m[key]
	hit := e != nil
	if e == nil {
		e = &entry[V]{}
		s.m[key] = e
	}
	s.mu.Unlock()
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
		if b := c.disk.Load(); b != nil {
			dk := b.namespace + "|" + key
			if b.d.Get(dk, &e.val) {
				telemetry.Add(b.hit, 1)
				e.done.Store(true)
				return
			}
			telemetry.Add(b.miss, 1)
			e.val, e.err = compute()
			if e.err == nil && b.d.put(dk, e.val) {
				telemetry.Add(b.write, 1)
			}
			e.done.Store(true)
			return
		}
		e.val, e.err = compute()
		e.done.Store(true)
	})
	if e.err != nil {
		var u uncacheable
		if errors.As(e.err, &u) && u.Uncacheable() {
			s.lock(idx)
			// Guard against a racing request that already replaced the
			// entry: only evict the one we observed.
			if s.m[key] == e {
				delete(s.m, key)
			}
			s.mu.Unlock()
			telemetry.Add("evalcache.evicted", 1)
		}
		if u, ok := e.err.(Unstored[V]); ok {
			return u.Value, nil
		}
	}
	return e.val, e.err
}

// Len reports how many keys have been requested (including in-flight
// ones), summed across all shards, for tests and cache-effectiveness
// accounting.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.lock(i)
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Contended reports how many lock acquisitions found a shard lock held,
// summed across shards — the residual serialization the sharding did
// not eliminate.
func (c *Cache[V]) Contended() int64 {
	var n int64
	for i := range c.shards {
		n += c.shards[i].contended.Load()
	}
	return n
}
