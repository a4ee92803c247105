// Package plancache provides the cross-run subproblem cache the planning
// stack shares: a concurrency-safe, sharded, bounded-LRU map from content
// fingerprints to solved values, with singleflight coalescing so N
// concurrent identical requests perform the work once, and operation
// counters for observability. The cache lives in memory only; it is
// shared within one process and never persisted.
//
// The package is deliberately generic infrastructure: it knows nothing
// about plans, networks or hardware. internal/core instantiates it with
// its plan-node type and supplies the content fingerprints; the same
// machinery would serve any other memoizable solver in the repo.
//
// Concurrency model: each shard is guarded by its own mutex, so readers
// and writers of different shards never contend. Values handed out by Get
// and Do are the stored values themselves, shared by every caller, so
// they must be treated as read-only. core stores plan subtrees that are
// read-only once built and links a hit into a plan as is.
package plancache

import (
	"sync"
	"sync/atomic"

	"accpar/internal/obs"
)

// Process-wide mirrors of the per-cache counters, aggregated across every
// Cache instance so the observability layer can export one set of
// plancache metrics without holding references to individual caches.
var (
	obsHits      = obs.NewCounter("plancache.hits")
	obsMisses    = obs.NewCounter("plancache.misses")
	obsEvictions = obs.NewCounter("plancache.evictions")
	obsCoalesced = obs.NewCounter("plancache.coalesced")
)

// shardCount is the number of independently locked LRU shards. A power of
// two so the shard index is a mask of the key's first byte. Subproblem
// keys are FNV hashes, so their first byte is uniformly distributed.
const shardCount = 32

// DefaultCapacity bounds a cache constructed with a non-positive capacity.
// Hierarchical subproblems are small (a plan subtree over tens of units),
// so a generous default favours hit rate over memory.
const DefaultCapacity = 1 << 16

// Stats is a point-in-time snapshot of the cache's operation counters.
//
// Counter invariant: every completed lookup — a Get call or a Do call —
// increments exactly one of Hits and Misses, so Hits + Misses equals the
// number of lookups and HitRate is the true observed hit fraction. A Do
// that coalesces onto another goroutine's in-flight computation is one
// lookup: it counts as a hit when the shared flight succeeded (it
// observed hit=true without running fn) and as a miss when the flight
// failed. The concurrency hammer tests assert the invariant.
type Stats struct {
	// Hits counts lookups satisfied without running a compute: resident
	// entries, plus coalesced Do calls whose shared flight succeeded.
	Hits int64
	// Misses counts lookups that had to compute (the one Do that runs fn),
	// found nothing (Get), or shared a failed flight.
	Misses int64
	// Evictions counts entries discarded by the LRU bound.
	Evictions int64
	// Coalesced counts Do calls that piggybacked on another goroutine's
	// in-flight computation of the same key instead of recomputing.
	Coalesced int64
	// Entries is the current resident entry count.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// entry is one resident key/value pair, a node of its shard's intrusive
// LRU list (prev is toward the MRU end, next toward the LRU end).
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

// shard is one independently locked LRU segment.
type shard[V any] struct {
	mu  sync.Mutex
	m   map[string]*entry[V]
	mru *entry[V] // most recently used
	lru *entry[V] // least recently used
	cap int
}

// flight is one in-progress computation other goroutines may join.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Cache is a sharded, bounded-LRU, singleflight-coalescing cache.
type Cache[V any] struct {
	shards [shardCount]shard[V]

	fmu     sync.Mutex
	flights map[string]*flight[V]

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	coalesced atomic.Int64
}

// New returns a cache bounded to capacity resident entries in total
// (DefaultCapacity when capacity <= 0). The bound is split evenly across
// the shards, so a pathological key distribution can evict earlier than a
// global LRU would; fingerprint keys are hash-uniform, making the split
// bound equivalent in practice.
func New[V any](capacity int) *Cache[V] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	perShard := (capacity + shardCount - 1) / shardCount
	c := &Cache[V]{flights: make(map[string]*flight[V])}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*entry[V])
		c.shards[i].cap = perShard
	}
	return c
}

// shardFor maps a key to its shard.
func (c *Cache[V]) shardFor(key string) *shard[V] {
	if len(key) == 0 {
		return &c.shards[0]
	}
	return &c.shards[key[0]&(shardCount-1)]
}

// lookup returns the value under key, marking it most recently used. It
// touches no counters: Get and Do account for the lookup themselves (Do
// must not count its head probe as a miss when it goes on to coalesce —
// the coalesced outcome decides hit or miss).
func (c *Cache[V]) lookup(key string) (V, bool) {
	s := c.shardFor(key)
	var v V
	s.mu.Lock()
	e, ok := s.m[key]
	if ok {
		s.touch(e)
		// Read under the lock: Put refreshes an entry's value in place.
		v = e.val
	}
	s.mu.Unlock()
	return v, ok
}

// Get returns the value cached under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	v, ok := c.lookup(key)
	if !ok {
		c.misses.Add(1)
		obsMisses.Inc()
		return v, false
	}
	c.hits.Add(1)
	obsHits.Inc()
	return v, true
}

// Put inserts or refreshes key, evicting the shard's least recently used
// entries while over capacity.
func (c *Cache[V]) Put(key string, val V) {
	s := c.shardFor(key)
	s.mu.Lock()
	if e, ok := s.m[key]; ok {
		e.val = val
		s.touch(e)
		s.mu.Unlock()
		return
	}
	e := &entry[V]{key: key, val: val}
	s.m[key] = e
	s.pushFront(e)
	var evicted int64
	for len(s.m) > s.cap {
		victim := s.lru
		s.unlink(victim)
		delete(s.m, victim.key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
		obsEvictions.Add(evicted)
		obs.Log().Info("plancache.evict",
			"evicted", evicted, "total_evictions", c.evictions.Load())
	}
}

// Do returns the value for key, computing it with fn on a miss. Concurrent
// Do calls for the same key coalesce: one runs fn, the rest block and
// share its outcome. Successful results are inserted into the cache;
// errors are returned to every waiter but never cached (they are rare and
// usually carry call-specific context). hit reports whether the value came
// from the cache or a successful coalesced flight rather than this call's
// fn; a waiter sharing a failed flight reports hit=false.
//
// Counter accounting (the Stats invariant): exactly one of Hits and
// Misses is incremented per Do call, matching the reported hit — the head
// probe itself is uncounted, so a coalesced waiter is never double-counted
// as a miss-then-hit.
func (c *Cache[V]) Do(key string, fn func() (V, error)) (val V, hit bool, err error) {
	if v, ok := c.lookup(key); ok {
		c.hits.Add(1)
		obsHits.Inc()
		return v, true, nil
	}
	c.fmu.Lock()
	if f, ok := c.flights[key]; ok {
		c.fmu.Unlock()
		<-f.done
		c.coalesced.Add(1)
		obsCoalesced.Inc()
		if f.err == nil {
			c.hits.Add(1)
			obsHits.Inc()
			return f.val, true, nil
		}
		c.misses.Add(1)
		obsMisses.Inc()
		return f.val, false, f.err
	}
	// No flight: either none ran, or one finished after the head probe —
	// a flight Puts its value before deregistering, so re-probing under
	// fmu serves that value instead of computing the key a second time.
	if v, ok := c.lookup(key); ok {
		c.fmu.Unlock()
		c.hits.Add(1)
		obsHits.Inc()
		return v, true, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.fmu.Unlock()
	c.misses.Add(1)
	obsMisses.Inc()

	f.val, f.err = fn()
	if f.err == nil {
		c.Put(key, f.val)
	}
	c.fmu.Lock()
	delete(c.flights, key)
	c.fmu.Unlock()
	close(f.done)
	return f.val, false, f.err
}

// Len returns the resident entry count.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the operation counters.
func (c *Cache[V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Coalesced: c.coalesced.Load(),
		Entries:   c.Len(),
	}
}

// touch moves an entry to the MRU position. Caller holds the shard lock.
func (s *shard[V]) touch(e *entry[V]) {
	if s.mru == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// pushFront links an unlinked entry at the MRU position. Caller holds the
// shard lock.
func (s *shard[V]) pushFront(e *entry[V]) {
	e.prev = nil
	e.next = s.mru
	if s.mru != nil {
		s.mru.prev = e
	}
	s.mru = e
	if s.lru == nil {
		s.lru = e
	}
}

// unlink removes an entry from the list. Caller holds the shard lock.
func (s *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.mru = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.lru = e.prev
	}
	e.prev, e.next = nil, nil
}
