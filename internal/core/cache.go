package core

import (
	"encoding/binary"
	"hash/fnv"

	"accpar/internal/dnn"
	"accpar/internal/plancache"
)

// This file connects the planner to the cross-run plan cache. The
// per-search planMemo (memo.go) dies with each PartitionCtx call; SharedCache
// outlives searches, but not the process that holds it. Only
// one-shot searches (PartitionCtx) attach it: a ReplanEngine's retained
// memo is that engine's one store, and mirroring its work here would only
// churn the cache with subproblems of hardware that rarely recurs. Every
// entry is a solved hierarchical subproblem, content-addressed by the
// concatenation of two fingerprints:
//
//   - the search fingerprint: everything fixed for one planner — the
//     network's unit/segment structure and every Options field that can
//     change a decision (the Fixed assignment function is fingerprinted by
//     its observable behaviour: its result on each unit);
//   - the subproblem key (memo.go): the hardware subtree and the
//     effective per-unit dims at the node.
//
// Parallelism is deliberately absent from the fingerprint: plans are
// byte-identical across worker counts (TestParallelismEquivalence), so a
// plan solved serially may warm a parallel search and vice versa.

// SharedCache is a concurrency-safe, bounded, in-memory cache of solved
// hierarchical subproblems, shared across one-shot searches — PartitionCtx,
// the AccPar portfolio, Compare, evaluation sweeps and autotuning — over
// any mix of networks, hardware trees and options. Replanning never
// touches it: replan engines keep their own dependency-tracked memo. The
// zero capacity selects plancache.DefaultCapacity.
//
// A resident solution is a read-only PlanNode subtree shared by every
// plan that reached it: a hit links the stored node into the new plan
// rather than copying it (a copy is made only to relabel a hit solved at
// a different depth), so the cache holds each subtree once however many
// parents and plans link it. Plans built with a SharedCache may
// therefore share nodes with each other and must never be mutated.
type SharedCache struct {
	c *plancache.Cache[*PlanNode]
}

// NewSharedCache returns a cache bounded to capacity resident subproblem
// solutions (≤ 0 selects the default).
func NewSharedCache(capacity int) *SharedCache {
	return &SharedCache{c: plancache.New[*PlanNode](capacity)}
}

// Stats returns the cache's hit/miss/eviction/coalesce counters.
func (s *SharedCache) Stats() plancache.Stats {
	if s == nil {
		return plancache.Stats{}
	}
	return s.c.Stats()
}

// Len returns the resident entry count.
func (s *SharedCache) Len() int {
	if s == nil {
		return 0
	}
	return s.c.Len()
}

// searchFingerprint hashes everything that is fixed across one planner's
// subproblems but varies between planners sharing a cache: the network
// structure and the decision-relevant options. Subproblem keys (subtree,
// dims) are only unique within one fingerprint.
func searchFingerprint(units []dnn.WeightedLayer, segs, planSegs []segRef, opt Options) string {
	h := fnv.New128a()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wStr := func(s string) {
		wInt(int64(len(s)))
		h.Write([]byte(s))
	}

	// Network structure: per-unit identity (dims travel in the subproblem
	// key) and the series-parallel segment shape, both as searched and as
	// planned (they differ under Linearize).
	wInt(int64(len(units)))
	for _, u := range units {
		wStr(u.Name)
		wInt(int64(u.Kind))
		if u.Virtual {
			wInt(1)
		} else {
			wInt(0)
		}
	}
	wSegs := func(refs []segRef) {
		wInt(int64(len(refs)))
		for _, r := range refs {
			wInt(int64(r.unit))
			wInt(int64(len(r.paths)))
			for _, p := range r.paths {
				wInt(int64(len(p)))
				for _, u := range p {
					wInt(int64(u))
				}
			}
		}
	}
	wSegs(segs)
	wSegs(planSegs)

	// Options, field by field. Types order matters to DP tie-breaking, so
	// the set is hashed in its configured order.
	wInt(int64(len(opt.Types)))
	for _, t := range opt.Types {
		wInt(int64(t))
	}
	wInt(int64(opt.Objective))
	wInt(int64(opt.Ratio))
	wInt(int64(opt.MaxRatioIters))
	if opt.Linearize {
		wInt(1)
	} else {
		wInt(0)
	}
	wInt(int64(opt.Optimizer))
	wInt(int64(opt.Topology))
	if opt.Exhaustive {
		wInt(1)
	} else {
		wInt(0)
	}
	wInt(int64(opt.Mode))
	// The memory constraint changes decisions (constrained searches may
	// pick different types or ratios), so it namespaces cache entries;
	// the capacity inputs themselves travel in the subproblem key, whose
	// subtree digests (hardware.Tree.Identity) fold in every spec's
	// HBMBytes fingerprint.
	wInt(int64(opt.MemoryLimit))

	// The Fixed assignment is a function — unhashable by value — but its
	// only observable effect is its result on each of this network's
	// units, so that result vector IS its fingerprint here.
	if opt.Fixed == nil {
		wInt(-1)
	} else {
		for _, u := range units {
			if t, ok := opt.Fixed(u); ok {
				wInt(int64(t) + 1)
			} else {
				wInt(0)
			}
		}
	}
	return string(h.Sum(nil))
}
