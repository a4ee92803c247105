package hardware

import (
	"math"

	"accpar/internal/wordhash"
)

// Identity is the content identity of one hardware subtree: a
// Merkle-style content digest (two subtrees digest equally iff their
// spec lists and shapes are identical) and the sorted distinct spec
// fingerprints the subtree is built from. The digest is what keys a
// planner's memoized subproblems in O(1) regardless of how much hardware
// hangs below a node; the spec set is the dependency record a retained
// memo tracks invalidation by — a cached subproblem is current exactly
// as long as every spec it was solved against is still part of some
// hierarchy the planner serves.
//
// The digest deliberately excludes the node's absolute level: no cost
// the planner computes depends on depth-from-root (sides, bandwidths and
// dims fully determine a subproblem), so a subtree solved at depth 2 of
// one fleet answers the identical subtree hanging at depth 5 of another.
type Identity struct {
	Digest [16]byte
	// Specs holds the sorted distinct spec fingerprints. It is shared
	// with other nodes of the tree and must be treated as read-only.
	Specs []uint64
	// HBMBytes is the subtree's aggregate HBM capacity. The residency a
	// workload needs can never exceed it in a feasible plan, so a
	// memory-constrained search prunes on it in any ratio mode. The
	// digest already covers it (spec fingerprints fold in HBMBytes).
	HBMBytes int64
	// CapFloorHalf is the minimum over leaves of (leaf capacity ·
	// 2^depth below this node): under equal ratios every child inherits
	// at least half its parent's residency, so a workload needing more
	// than this provably overflows some leaf. Useless under flexible
	// ratios, where a split may push as little as MinRatio to one side.
	CapFloorHalf int64
}

// Identity returns the node's content identity, computing it (and its
// descendants') on the first call and caching it on the node. Concurrent
// first calls are safe. A tree must not change after its first Identity
// call; trees from BuildTree never change.
func (t *Tree) Identity() Identity {
	t.identOnce.Do(t.computeIdentity)
	return t.ident
}

// computeIdentity digests the node's spec list (in group order — member
// order is observable through Group.String) and its children's digests,
// so content-identical subtrees — the two halves of a homogeneous group,
// the untouched subtrees of a pristine and a degraded hierarchy, or the
// same procurement block hanging at different depths of two candidate
// fleets — digest identically even across distinct tree objects.
//
// The spec list enters as its maximal runs of (fingerprint, count), and
// each run is fingerprinted once (specRuns): a group is a few runs of
// identical boards, so a node costs O(runs) hashing however many boards
// it holds. The words go through wordhash: the member count, each run,
// a leaf/split marker, then the children's digests. The member count
// fixes where the runs end, so the encoding is unambiguous.
func (t *Tree) computeIdentity() {
	h := wordhash.New()
	h.Word(uint64(t.Group.Size()))
	specRuns(t.Group.Accel, func(fp uint64, n int) {
		h.Word(fp)
		h.Word(uint64(n))
	})
	id := &t.ident
	id.HBMBytes = t.Group.HBMBytes()
	if t.IsLeaf() {
		h.Word(leafMarker)
		id.Specs = distinctSpecs(t.Group.Accel)
		id.CapFloorHalf = id.HBMBytes
	} else {
		h.Word(splitMarker)
		l, r := t.Left.Identity(), t.Right.Identity()
		h.Digest(&l.Digest)
		h.Digest(&r.Digest)
		id.Specs = MergeSpecs(l.Specs, r.Specs)
		floor := min(l.CapFloorHalf, r.CapFloorHalf)
		if floor > math.MaxInt64/2 {
			id.CapFloorHalf = math.MaxInt64
		} else {
			id.CapFloorHalf = 2 * floor
		}
	}
	id.Digest = h.Sum()
}

// leafMarker and splitMarker tell a leaf's digest words from a split's.
const (
	leafMarker  = ^uint64(0)
	splitMarker = ^uint64(1)
)

// specRuns calls f once per maximal run of equal fingerprints in accel,
// in order. A spec is fingerprinted only when it differs from its
// predecessor in some field Fingerprint reads (sameFingerprintInputs),
// so a run of identical boards costs one fingerprint.
func specRuns(accel []Spec, f func(fp uint64, n int)) {
	if len(accel) == 0 {
		return
	}
	fp, n := accel[0].Fingerprint(), 1
	for i := 1; i < len(accel); i++ {
		if !sameFingerprintInputs(&accel[i], &accel[i-1]) {
			if next := accel[i].Fingerprint(); next != fp {
				f(fp, n)
				fp, n = next, 0
			}
		}
		n++
	}
	f(fp, n)
}

// distinctSpecs returns the sorted distinct fingerprints of a spec list.
func distinctSpecs(accel []Spec) []uint64 {
	out := make([]uint64, 0, 2)
	specRuns(accel, func(fp uint64, _ int) {
		for _, v := range out {
			if v == fp {
				return
			}
		}
		out = append(out, fp)
	})
	// Insertion sort: group spec lists hold a handful of distinct models.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

// MergeSpecs unions two sorted distinct fingerprint slices, such as two
// Identity.Specs. When one side covers the other — the overwhelmingly
// common case, since a parent's children usually share spec models — the
// covering slice is returned as-is, so a whole subtree shares one
// allocation.
func MergeSpecs(a, b []uint64) []uint64 {
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
