package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"accpar/internal/hardware"
)

// hwInfo is the indexed identity of one hardware subtree: a Merkle-style
// content digest (two subtrees digest equally iff their spec lists and
// shapes are identical) and the sorted distinct spec fingerprints the
// subtree is built from. The digest turns the per-node subproblem key
// from an O(subtree) hash into an O(1) lookup; the spec set is the
// dependency record a retained memo tracks invalidation by — a cached
// subproblem is current exactly as long as every spec it was solved
// against is still part of some hierarchy the planner serves.
//
// The digest deliberately excludes the node's absolute level: no cost
// the planner computes depends on depth-from-root (sides, bandwidths and
// dims fully determine a subproblem), so a subtree solved at depth 2 of
// one fleet answers the identical subtree hanging at depth 5 of another.
// Level is a display label, restored at clone time (clonePlanNodeAt)
// whenever a memoized solution is linked under a different root.
type hwInfo struct {
	digest [16]byte
	specs  []uint64
	// hbm is the subtree's aggregate HBM capacity. The residency a
	// workload needs can never exceed it in a feasible plan — splitting
	// is superadditive in the residency monomials (bound.go) — so the
	// constrained search prunes on it in any ratio mode. The digest
	// already covers it (spec fingerprints fold in HBMBytes), so two
	// subtrees digesting equally always agree on these fields.
	hbm int64
	// capFloorHalf is the minimum over leaves of (leaf capacity · 2^depth
	// below this node): under equal ratios every child inherits at least
	// half its parent's residency, so a workload needing more than this
	// provably overflows some leaf. Useless under flexible ratios, where
	// a split may push as little as MinRatio to one side.
	capFloorHalf int64
}

// hwIndex maps hardware-tree nodes to their hwInfo. Reads take a
// shared lock on the per-subproblem hot path; indexing a new tree takes
// the write lock and grows the map in place, so the cost of announcing
// a tree is proportional to that tree alone — a sweep indexing hundreds
// of candidate hierarchies pays O(total nodes), not O(n²) map copying.
// A node missing from the map — a tree never announced via ensure — is
// indexed on demand, so lookups never fail, only slow down.
//
// A one-shot search or a sweep discards its index with it. A long-lived
// index (one per ReplanEngines registry, shared by its engines) bounds
// itself by reference-counted roots instead: retain holds a root,
// release drops the hold, and the last release forgets the root's nodes
// by a pointer walk. Upkeep is therefore proportional to the trees that
// enter or leave; retained trees are never re-digested.
type hwIndex struct {
	mu   sync.RWMutex
	m    map[*hardware.Tree]hwInfo
	refs map[*hardware.Tree]int
}

func newHWIndex() *hwIndex {
	return &hwIndex{m: make(map[*hardware.Tree]hwInfo), refs: make(map[*hardware.Tree]int)}
}

// ensure returns root's hwInfo, indexing its whole subtree first if it
// is not yet known.
func (x *hwIndex) ensure(root *hardware.Tree) hwInfo {
	x.mu.RLock()
	info, ok := x.m[root]
	x.mu.RUnlock()
	if ok {
		return info
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if info, ok := x.m[root]; ok {
		return info
	}
	return x.index(root)
}

// retain takes one hold on root, indexing its subtree if it is new, and
// returns root's hwInfo.
func (x *hwIndex) retain(root *hardware.Tree) hwInfo {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.refs[root]++
	if info, ok := x.m[root]; ok {
		return info
	}
	return x.index(root)
}

// release drops one hold on root. The last hold's release forgets every
// node under root without hashing anything. Trees are built per
// hierarchy, so the walk touches no other retained tree's nodes; a node
// two retained roots did share would only be re-indexed on demand.
func (x *hwIndex) release(root *hardware.Tree) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if n := x.refs[root]; n > 1 {
		x.refs[root] = n - 1
		return
	}
	delete(x.refs, root)
	forgetTree(root, x.m)
}

// index digests root's subtree into the map and counts the new nodes.
// Caller holds the write lock.
func (x *hwIndex) index(root *hardware.Tree) hwInfo {
	n := len(x.m)
	info := indexTree(root, x.m)
	obsNodesIndexed.Add(int64(len(x.m) - n))
	return info
}

// size returns the indexed node count.
func (x *hwIndex) size() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.m)
}

// forgetTree deletes every node of t from m.
func forgetTree(t *hardware.Tree, m map[*hardware.Tree]hwInfo) {
	delete(m, t)
	if !t.IsLeaf() {
		forgetTree(t.Left, m)
		forgetTree(t.Right, m)
	}
}

// indexTree computes hwInfo for every node of t bottom-up into m and
// returns the root's. The digest folds the node's spec list (in group
// order — member order is observable through Group.String) and the
// children's digests, so content-identical subtrees — the two halves of
// a homogeneous group, the untouched subtrees of a pristine and a
// degraded hierarchy, or the same procurement block hanging at
// different depths of two candidate fleets — digest identically even
// across distinct tree objects.
func indexTree(t *hardware.Tree, m map[*hardware.Tree]hwInfo) hwInfo {
	if info, ok := m[t]; ok {
		return info
	}
	h := fnv.New128a()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wInt(int64(t.Group.Size()))
	for _, s := range t.Group.Accel {
		wInt(int64(s.Fingerprint()))
	}
	var info hwInfo
	info.hbm = t.Group.HBMBytes()
	if t.IsLeaf() {
		wInt(-1)
		info.specs = distinctSpecs(t.Group.Accel)
		info.capFloorHalf = info.hbm
	} else {
		wInt(-2)
		l := indexTree(t.Left, m)
		r := indexTree(t.Right, m)
		h.Write(l.digest[:])
		h.Write(r.digest[:])
		info.specs = mergeSpecs(l.specs, r.specs)
		min := l.capFloorHalf
		if r.capFloorHalf < min {
			min = r.capFloorHalf
		}
		if min > math.MaxInt64/2 {
			info.capFloorHalf = math.MaxInt64
		} else {
			info.capFloorHalf = 2 * min
		}
	}
	h.Sum(info.digest[:0])
	m[t] = info
	return info
}

// distinctSpecs returns the sorted distinct fingerprints of a spec list.
func distinctSpecs(accel []hardware.Spec) []uint64 {
	out := make([]uint64, 0, 2)
	for _, s := range accel {
		fp := s.Fingerprint()
		seen := false
		for _, v := range out {
			if v == fp {
				seen = true
				break
			}
		}
		if !seen {
			out = append(out, fp)
		}
	}
	// Insertion sort: group spec lists hold a handful of distinct models.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// mergeSpecs unions two sorted distinct fingerprint slices. When one
// side covers the other — the overwhelmingly common case, since a
// parent's children usually share spec models — the covering slice is
// returned as-is, so a whole subtree shares one allocation.
func mergeSpecs(a, b []uint64) []uint64 {
	if covers(a, b) {
		return a
	}
	if covers(b, a) {
		return b
	}
	out := make([]uint64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// covers reports whether sorted slice a contains every element of b.
func covers(a, b []uint64) bool {
	i := 0
	for _, v := range b {
		for i < len(a) && a[i] < v {
			i++
		}
		if i >= len(a) || a[i] != v {
			return false
		}
	}
	return true
}
