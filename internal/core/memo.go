package core

import (
	"sync"
	"sync/atomic"

	"accpar/internal/cost"
	"accpar/internal/hardware"
	"accpar/internal/wordhash"
)

// planMemo caches solved hierarchical subproblems. A subproblem is fully
// identified — within one planner, whose network, segment structure,
// per-unit constants and options are fixed — by the hardware subtree it
// partitions and the effective per-unit extents it partitions at, so the
// key is a content hash of exactly those two inputs. Content addressing (rather than node
// pointers) is what lets degradation-aware replanning reuse every subtree
// the fault did not touch: the pristine and degraded hierarchies are
// distinct tree objects, but their unaffected subtrees hash identically.
// Symmetric splits benefit the same way — a homogeneous level with
// α = 0.5 hands both children identical (subtree, dims) subproblems, so a
// depth-h homogeneous hierarchy costs O(h) DP runs instead of O(2^h).
//
// Each entry also records the epoch (one search or replan call) that
// last served it. A memo that dies with one search never reads it; a
// SharedCache, which retains one memo per search fingerprint across
// searches and replans, evicts the entries of the oldest epochs first.
// Eviction is a liveness policy, never a correctness mechanism: content
// addressing already guarantees an entry can only be missed, never
// wrongly hit.
//
// The memo is sharded to keep concurrent searches on one SharedCache from
// serializing on one lock. A shard's map is made by the first put that lands in it, so
// the zero planMemo is ready to use and a small memo (a SharedCache keeps
// one per search fingerprint) holds only the shards it fills.
type planMemo struct {
	shards [memoShards]memoShard
	count  atomic.Int64
}

const memoShards = 16

type memoShard struct {
	mu sync.RWMutex
	m  map[memoKey]*memoEntry
}

// subKey is a subproblem's 128-bit content identity (subproblemKey).
type subKey [16]byte

// memoKey addresses one memo entry. A plain subproblem leaves stale zero;
// a stale re-costing (staleNodeInc) sets it to the pristine subtree's
// digest, so the two kinds of entry are disjoint by structure.
type memoKey struct {
	sub   subKey
	stale [16]byte
}

type memoEntry struct {
	node *PlanNode
	// epoch is the search or replan call that last hit or stored the
	// entry.
	epoch atomic.Int64
}

func (p *planMemo) shard(key memoKey) *memoShard {
	return &p.shards[key.sub[0]&(memoShards-1)]
}

// get returns the cached solution for key, stamping the entry with the
// serving epoch and reporting the epoch that last touched it before this
// call — a cached search tells a cross-run cache hit (another search
// solved or served the entry, so prev differs from the serving epoch)
// from reuse within its own search by exactly that value.
// The lookup hashes nothing and allocates nothing: key is a fixed-size
// value. The returned node is the stored one, shared with every plan
// that already links it; it is read-only and position-free, so the
// caller links it as is at whatever depth it needs it.
func (p *planMemo) get(key memoKey, epoch int64) (node *PlanNode, prev int64, ok bool) {
	s := p.shard(key)
	s.mu.RLock()
	e, found := s.m[key]
	s.mu.RUnlock()
	if !found {
		return nil, 0, false
	}
	prev = e.epoch.Load()
	if epoch > prev {
		e.epoch.Store(epoch)
	}
	return e.node, prev, true
}

func (p *planMemo) put(key memoKey, n *PlanNode, epoch int64) {
	e := &memoEntry{node: n}
	e.epoch.Store(epoch)
	s := p.shard(key)
	s.mu.Lock()
	if s.m == nil {
		s.m = make(map[memoKey]*memoEntry)
	}
	if _, exists := s.m[key]; !exists {
		p.count.Add(1)
	}
	s.m[key] = e
	s.mu.Unlock()
}

// len returns the resident entry count.
func (p *planMemo) len() int {
	return int(p.count.Load())
}

// evictBefore removes entries whose last-served epoch predates cutoff
// and returns the number removed: the SharedCache's capacity bound.
func (p *planMemo) evictBefore(cutoff int64) int {
	removed := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for k, e := range s.m {
			if e.epoch.Load() < cutoff {
				delete(s.m, k)
				removed++
			}
		}
		s.mu.Unlock()
	}
	p.count.Add(int64(-removed))
	return removed
}

// epochCounts adds to counts how many entries each epoch last served.
func (p *planMemo) epochCounts(counts map[int64]int) {
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.RLock()
		for _, e := range s.m {
			counts[e.epoch.Load()]++
		}
		s.mu.RUnlock()
	}
}

// subproblemKey hashes (hardware subtree, effective extents) into a memo
// key. The subtree enters through its cached content digest
// (hardware.Tree.Identity), so keying a node is O(units) regardless of
// how much hardware hangs below it. The hashed words — the digest's two
// halves, the unit count and three extents per unit (B, D_i, D_o) — go
// through wordhash one machine word at a time, with no buffer. The other
// six extents of a unit never change below the root; the search
// fingerprint covers them (searchFingerprint), so a key needs only the
// three a split can change.
func (p *planner) subproblemKey(node *hardware.Tree, dims []extents) subKey {
	h := newKeyHash(node, len(dims))
	for i := range dims {
		hashExtents(&h, &dims[i])
	}
	return h.Sum()
}

// childKey scales the extents of one child of a split at (dims, types,
// ratio) into dst, a buffer of len(dims) units, and returns the child's
// subproblem key, subproblemKey(node, dst), in the same pass: each unit
// is hashed as extents.scale writes it, so a miss solves from dst without
// scaling again.
func (p *planner) childKey(dst []extents, node *hardware.Tree, dims []extents, types []cost.Type, ratio float64) subKey {
	if p.rs != nil {
		p.rs.childKeys++
	}
	h := newKeyHash(node, len(dims))
	for i := range dims {
		dst[i] = dims[i].scale(p.consts[i].virtual, types[i], ratio)
		hashExtents(&h, &dst[i])
	}
	return h.Sum()
}

// newKeyHash starts a key over node's subtree digest and n units.
func newKeyHash(node *hardware.Tree, n int) wordhash.Hash {
	digest := node.Identity().Digest
	h := wordhash.New()
	h.Digest(&digest)
	h.Word(uint64(n))
	return h
}

// hashExtents absorbs one unit's three extents.
func hashExtents(h *wordhash.Hash, e *extents) {
	h.Word(uint64(e.B))
	h.Word(uint64(e.Di))
	h.Word(uint64(e.Do))
}
