package core

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"accpar/internal/cost"
	"accpar/internal/hardware"
	"accpar/internal/tensor"
)

// planMemo caches solved hierarchical subproblems. A subproblem is fully
// identified — within one planner, whose network, segment structure and
// options are fixed — by the hardware subtree it partitions and the
// effective per-unit dims it partitions at, so the key is a content hash
// of exactly those two inputs. Content addressing (rather than node
// pointers) is what lets degradation-aware replanning reuse every subtree
// the fault did not touch: the pristine and degraded hierarchies are
// distinct tree objects, but their unaffected subtrees hash identically.
// Symmetric splits benefit the same way — a homogeneous level with
// α = 0.5 hands both children identical (subtree, dims) subproblems, so a
// depth-h homogeneous hierarchy costs O(h) DP runs instead of O(2^h).
//
// Each entry additionally records its dependency set — the distinct
// hardware-spec fingerprints of the subtree it was solved against — and
// the epoch (replan generation) it was last served in. A memo that dies
// with one search never reads either; a memo retained across faults by a
// ReplanEngine uses the dependency sets to invalidate exactly the
// entries whose hardware has left the fleet, and the epochs to bound the
// entries kept for hardware that is still present but whose dims no
// future search will ask for. Invalidation is a liveness policy, never a
// correctness mechanism: content addressing already guarantees a stale
// entry can only be missed, not wrongly hit.
//
// The memo is sharded to keep concurrent planner workers from serializing
// on one lock.
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
	// deps holds the sorted distinct spec fingerprints of the hardware
	// subtree this solution depends on (shared with the tree's cached
	// Identity — read only).
	deps []uint64
	// epoch is the replan generation that last hit or stored the entry.
	epoch atomic.Int64
}

func newPlanMemo() *planMemo {
	p := &planMemo{}
	for i := range p.shards {
		p.shards[i].m = make(map[memoKey]*memoEntry)
	}
	return p
}

func (p *planMemo) shard(key memoKey) *memoShard {
	return &p.shards[key.sub[0]&(memoShards-1)]
}

// get returns the cached solution for key, stamping the entry with the
// serving epoch and reporting the epoch that last touched it before this
// call — a batch engine distinguishes cross-fleet hits (the entry was
// solved or served while planning a different candidate, so prev differs
// from the serving epoch) from intra-tree reuse by exactly that value.
// The lookup hashes nothing and allocates nothing: key is a fixed-size
// value. The caller must clone the returned node before linking it into
// a plan (clonePlanNodeAt): plan consumers (the array simulator's
// leaf-range index in particular) key maps by *PlanNode, so a subtree
// shared between two parents would silently alias.
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

func (p *planMemo) put(key memoKey, n *PlanNode, deps []uint64, epoch int64) {
	e := &memoEntry{node: n, deps: deps}
	e.epoch.Store(epoch)
	s := p.shard(key)
	s.mu.Lock()
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

// invalidate removes every entry depending on a spec fingerprint in gone
// and returns the number removed. This is the dependency walk of
// incremental replanning: after a Degrade/DegradeGroups the fingerprints
// of the touched group change, so once the degraded hardware leaves the
// working set precisely the subproblems whose hardware subtree contained
// that group fall out, and everything else stays resident for the next
// search.
func (p *planMemo) invalidate(gone map[uint64]bool) int {
	removed := 0
	for i := range p.shards {
		s := &p.shards[i]
		s.mu.Lock()
		for k, e := range s.m {
			for _, fp := range e.deps {
				if gone[fp] {
					delete(s.m, k)
					removed++
					break
				}
			}
		}
		s.mu.Unlock()
	}
	p.count.Add(int64(-removed))
	return removed
}

// evictBefore removes entries whose last-served epoch predates cutoff
// and returns the number removed — the size backstop for entries whose
// hardware is still reachable but whose dims (a one-off fault ratio's
// scaling chain) no future search will ask for.
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

// subproblemKey hashes (hardware subtree, effective dims) into a memo
// key. The subtree enters through its cached content digest
// (hardware.Tree.Identity), so keying a node is O(dims) regardless of
// how much hardware hangs below it. The hashed words — the digest's two
// halves, the unit count and nine extents per unit — go through
// keyHash one machine word at a time, with no buffer.
func (p *planner) subproblemKey(node *hardware.Tree, dims []tensor.LayerDims) subKey {
	h := newKeyHash(node, len(dims))
	for i := range dims {
		h.dims(&dims[i])
	}
	return h.sum()
}

// childKey is subproblemKey(node, scaleUnitDims(p.units, dims, types,
// ratio)) without building the scaled slice: each unit's child dims are
// hashed as scaleUnit produces them, so a memo hit never materializes
// dims it would throw away.
func (p *planner) childKey(node *hardware.Tree, dims []tensor.LayerDims, types []cost.Type, ratio float64) subKey {
	h := newKeyHash(node, len(dims))
	for i := range dims {
		d := scaleUnit(p.units[i].Virtual, dims[i], types[i], ratio)
		h.dims(&d)
	}
	return h.sum()
}

// keyHash is the memo's 128-bit word-wise hash: two independent lanes,
// each absorbing every word with a 64×64→128-bit multiply folded back to
// 64 bits (hi ^ lo), under distinct odd multipliers and distinct absorb
// operations (xor, add), so a collision needs both lanes to collide at
// once. sum finishes with two Feistel rounds of the same fold, a
// bijection of the 128-bit state that spreads every input word into
// every output byte (the shard index reads the first).
type keyHash struct{ a, b uint64 }

const (
	keyM1 = 0xa0761d6478bd642f
	keyM2 = 0xe7037ed1a0b428db
	keyM3 = 0x8ebc6af09c88c6e3
	keyM4 = 0x589965cc75374cc3
)

// fold is the multiply-fold mixing step.
func fold(x, m uint64) uint64 {
	hi, lo := bits.Mul64(x, m)
	return hi ^ lo
}

// newKeyHash starts a key over node's subtree digest and n units.
func newKeyHash(node *hardware.Tree, n int) keyHash {
	digest := node.Identity().Digest
	h := keyHash{a: keyM3, b: keyM4}
	h.word(binary.LittleEndian.Uint64(digest[:8]))
	h.word(binary.LittleEndian.Uint64(digest[8:]))
	h.word(uint64(n))
	return h
}

func (h *keyHash) word(v uint64) {
	h.a = fold(h.a^v, keyM1)
	h.b = fold(h.b+v, keyM2)
}

// dims absorbs one unit's nine extents.
func (h *keyHash) dims(d *tensor.LayerDims) {
	h.word(uint64(d.B))
	h.word(uint64(d.Di))
	h.word(uint64(d.Do))
	h.word(uint64(d.HIn))
	h.word(uint64(d.WIn))
	h.word(uint64(d.HOut))
	h.word(uint64(d.WOut))
	h.word(uint64(d.KH))
	h.word(uint64(d.KW))
}

func (h *keyHash) sum() subKey {
	a := h.a ^ fold(h.b, keyM3)
	b := h.b ^ fold(a, keyM4)
	var k subKey
	binary.LittleEndian.PutUint64(k[:8], a)
	binary.LittleEndian.PutUint64(k[8:], b)
	return k
}

// clonePlanNodeAt copies a memoized subtree so every parent links a
// private node graph, relabeling Level to the depth the clone is linked
// at (children one deeper, mirroring BuildTree). Subtree digests are
// level-independent (hardware.Identity), so a memo hit may serve a
// solution first computed at a different depth of a different tree;
// every other field of the solution is depth-invariant, and the relabel
// restores the one that is not, keeping plans byte-identical to a
// standalone search.
func clonePlanNodeAt(n *PlanNode, level int) *PlanNode {
	if n == nil {
		return nil
	}
	c := *n
	c.Level = level
	// Types and Dims are aliased, not copied: both are freshly allocated
	// at node construction and never written afterwards (by the planner or
	// any consumer), so sharing them is safe and keeps a memo or cache hit
	// at one small struct per node instead of re-copying every per-unit
	// slice. Node identity is what must stay distinct — plan consumers key
	// maps by *PlanNode — and it does.
	c.Left = clonePlanNodeAt(n.Left, level+1)
	c.Right = clonePlanNodeAt(n.Right, level+1)
	return &c
}
