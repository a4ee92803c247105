package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"accpar/internal/dnn"
	"accpar/internal/obs"
	"accpar/internal/wordhash"
)

// This file connects searches to the cross-run plan cache. A
// SharedCache keeps one entry per search fingerprint: everything fixed
// for one planner — the network's unit/segment structure and every
// Options field that can change a decision (the Fixed assignment function
// is fingerprinted by its observable behaviour: its result on each unit).
// An entry holds the fingerprint's planMemo (memo.go) and its search
// shape (partition.go: units and their constants, segment index, pooled
// level contexts), built once, by the first search that attaches. Within
// the memo a solved subproblem is keyed, as in any planner, by its
// hardware subtree and effective per-unit extents (B, D_i, D_o). A
// search or replan with Options.Cache set plans on its fingerprint's
// entry directly, so every solved subproblem
// is stored once, in one place: a replan's pristine plan, its memoized
// stale re-costings, the untouched subtrees of its degraded hierarchy and
// a design-space sweep's subtrees shared between candidate fleets are
// entries of the same memo the one-shot searches fill.
//
// Parallelism is deliberately absent from the fingerprint: no search
// reads it, and plans are byte-identical at every value
// (TestParallelismEquivalence), so searches that differ only in it share
// one entry.

// defaultCacheCapacity bounds a cache constructed with a non-positive
// capacity. Hierarchical subproblems are small (a plan subtree over tens
// of units), so a generous default favours hit rate over memory.
const defaultCacheCapacity = 1 << 16

// SharedCache is a concurrency-safe, bounded, in-memory cache of solved
// hierarchical subproblems, shared across searches — PartitionCtx, the
// AccPar portfolio, Compare, evaluation and design-space sweeps,
// autotuning and ReplanCtx — over any mix of networks, hardware trees and
// options.
//
// Every attached search draws a fresh epoch from the cache and stamps
// the entries it stores or serves with it, so an entry's epoch says which
// search used it last. A hit on an entry stamped by another search is a
// cache hit; a hit on one this search stamped is an ordinary memo hit.
// The capacity bounds the whole cache: after a search that leaves it
// holding more entries than that, the entries of the oldest epochs go
// first, down to three quarters of the capacity, so the searches least
// recently served lose their subproblems first.
//
// A resident solution is a read-only PlanNode subtree shared by every
// plan that reached it: a hit links the stored node into the new plan,
// at whatever depth, rather than copying it, so the cache holds each
// subtree once however many parents and plans link it. Plans built with
// a SharedCache may therefore share nodes with each other and must never
// be mutated.
type SharedCache struct {
	capacity int
	epoch    atomic.Int64

	mu      sync.Mutex
	entries map[[16]byte]*cacheEntry

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// cacheEntry is one search fingerprint's retained state.
type cacheEntry struct {
	memo  planMemo
	shape *searchShape
}

// CacheStats is a point-in-time snapshot of a SharedCache's counters.
type CacheStats struct {
	// Hits counts subproblems served from entries another search solved
	// or served last.
	Hits int64
	// Misses counts subproblems an attached search solved from scratch.
	Misses int64
	// Evictions counts entries dropped by the capacity bound.
	Evictions int64
	// Entries is the current resident entry count.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewSharedCache returns a cache bounded to capacity resident subproblem
// solutions (≤ 0 selects the default).
func NewSharedCache(capacity int) *SharedCache {
	if capacity <= 0 {
		capacity = defaultCacheCapacity
	}
	return &SharedCache{capacity: capacity, entries: make(map[[16]byte]*cacheEntry)}
}

// Stats returns the cache's hit/miss/eviction counters.
func (c *SharedCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.Len(),
	}
}

// Len returns the resident entry count.
func (c *SharedCache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lenLocked()
}

func (c *SharedCache) lenLocked() int {
	n := 0
	for _, e := range c.entries {
		n += e.memo.len()
	}
	return n
}

// attach returns the memo and search shape of net's fingerprint under
// opt, creating the entry on first use, and a fresh epoch for one search
// on it.
func (c *SharedCache) attach(net *dnn.Network, opt Options) (*planMemo, *searchShape, int64) {
	fp := searchFingerprint(net, opt)
	c.mu.Lock()
	e := c.entries[fp]
	if e == nil {
		e = &cacheEntry{shape: newSearchShape(net, opt)}
		c.entries[fp] = e
	}
	c.mu.Unlock()
	return &e.memo, e.shape, c.epoch.Add(1)
}

// trim enforces the capacity bound after a search and returns the number
// of entries it evicted. Once the cache holds more than capacity entries,
// it evicts the entries of the oldest epochs until at most three quarters
// of capacity remain, and drops entries left empty. Trimming below the
// bound leaves room for the next searches, so the scan and sort run once
// per quarter of capacity filled rather than after every search of a
// full cache. A search still running on a dropped entry stays correct —
// content addressing means an evicted entry can only be missed and
// re-solved, never wrongly hit — and its later entries simply leave with
// it.
func (c *SharedCache) trim() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.lenLocked()
	if total <= c.capacity {
		return 0
	}
	target := c.capacity * 3 / 4
	counts := make(map[int64]int)
	for _, e := range c.entries {
		e.memo.epochCounts(counts)
	}
	epochs := make([]int64, 0, len(counts))
	for ep := range counts {
		epochs = append(epochs, ep)
	}
	slices.Sort(epochs)
	var cutoff int64
	for _, ep := range epochs {
		if total <= target {
			break
		}
		total -= counts[ep]
		cutoff = ep + 1
	}
	var evicted int64
	for fp, e := range c.entries {
		evicted += int64(e.memo.evictBefore(cutoff))
		if e.memo.len() == 0 {
			delete(c.entries, fp)
		}
	}
	c.evictions.Add(evicted)
	obsCacheEvictions.Add(evicted)
	obs.Log().Info("plancache.evict", "evicted", evicted, "total_evictions", c.evictions.Load())
	return evicted
}

// searchFingerprint hashes everything that is fixed across one planner's
// subproblems but varies between planners sharing a cache: the network
// structure, every unit's constants and the decision-relevant options.
// Subproblem keys (subtree, extents) are only unique within one
// fingerprint.
func searchFingerprint(net *dnn.Network, opt Options) [16]byte {
	h := wordhash.New()
	wInt := func(v int64) { h.Word(uint64(v)) }
	wBool := func(b bool) {
		if b {
			wInt(1)
		} else {
			wInt(0)
		}
	}

	// Network structure: per-unit identity and constants (unitConst: the
	// feature-map areas and kernel window no split changes; the three
	// extents a split changes travel in the subproblem key) and the
	// series-parallel segment shape, which also fixes the planned
	// structure under Linearize. The Fixed assignment is a function —
	// unhashable by value — but its only observable effect is its result
	// on each of this network's units, so that result vector IS its
	// fingerprint here.
	wBool(opt.Fixed != nil)
	wUnit := func(u *dnn.WeightedLayer) {
		h.String(u.Name)
		wInt(int64(u.Kind))
		k := constOf(u)
		wBool(k.virtual)
		wInt(k.sIn)
		wInt(k.sOut)
		wInt(k.k)
		if opt.Fixed == nil {
			return
		}
		if t, ok := opt.Fixed(*u); ok {
			wInt(int64(t) + 1)
		} else {
			wInt(0)
		}
	}
	wInt(int64(len(net.Segments)))
	for _, s := range net.Segments {
		if s.Unit != nil {
			wInt(-1)
			wUnit(s.Unit)
			continue
		}
		wInt(int64(len(s.Paths)))
		for _, path := range s.Paths {
			wInt(int64(len(path)))
			for i := range path {
				wUnit(&path[i])
			}
		}
	}

	// Options, field by field. Types order matters to DP tie-breaking, so
	// the set is hashed in its configured order.
	wInt(int64(len(opt.Types)))
	for _, t := range opt.Types {
		wInt(int64(t))
	}
	wInt(int64(opt.Objective))
	wInt(int64(opt.Ratio))
	wBool(opt.Linearize)
	wInt(int64(opt.Optimizer))
	wInt(int64(opt.Topology))
	wInt(int64(opt.Mode))
	// The memory constraint changes decisions (constrained searches may
	// pick different types or ratios), so it namespaces cache entries;
	// the capacity inputs themselves travel in the subproblem key, whose
	// subtree digests (hardware.Tree.Identity) fold in every spec's
	// HBMBytes fingerprint.
	wInt(int64(opt.MemoryLimit))
	return h.Sum()
}
