package hardware

import (
	"math"

	"accpar/internal/wordhash"
)

// Identity is the content identity of one hardware subtree: a
// Merkle-style content digest (two subtrees digest equally iff their
// spec lists and shapes are identical) plus the capacity figures a
// memory-constrained search prunes on. The digest is what keys a
// planner's memoized subproblems in O(1) regardless of how much hardware
// hangs below a node.
//
// The digest deliberately excludes the node's absolute level: no cost
// the planner computes depends on depth-from-root (sides, bandwidths and
// dims fully determine a subproblem), so a subtree solved at depth 2 of
// one fleet answers the identical subtree hanging at depth 5 of another.
type Identity struct {
	Digest [16]byte
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
// call. BuildTree computes the identities of the trees it returns, which
// never change; only a hand-built tree computes them on first use.
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
//
// Twin halves are digested once. When the node's group is one run of
// equal boards, it splits in place (splitsInPlace) and its halves have
// the same shape (sameShape), every node of the right subtree holds the
// same boards and stands in the same shape as its counterpart on the
// left, so the right half's identity is the left half's; it is stored on
// the right node without hashing that subtree. The checks matter because
// Tree fields are exported: a hand-built tree may split equal boards into
// differently shaped halves, or hang boards under a node that its parent
// does not hold, and those must digest exactly as a full walk would.
func (t *Tree) computeIdentity() {
	h := wordhash.New()
	h.Word(uint64(t.Group.Size()))
	runs := 0
	specRuns(t.Group.Accel, func(fp uint64, n int) {
		h.Word(fp)
		h.Word(uint64(n))
		runs++
	})
	id := &t.ident
	id.HBMBytes = t.Group.HBMBytes()
	if t.IsLeaf() {
		h.Word(leafMarker)
		id.CapFloorHalf = id.HBMBytes
	} else {
		h.Word(splitMarker)
		l := t.Left.Identity()
		if runs == 1 && splitsInPlace(t) && sameShape(t.Left, t.Right) {
			t.Right.identOnce.Do(func() { t.Right.ident = l })
		}
		r := t.Right.Identity()
		h.Digest(&l.Digest)
		h.Digest(&r.Digest)
		floor := min(l.CapFloorHalf, r.CapFloorHalf)
		if floor > math.MaxInt64/2 {
			id.CapFloorHalf = math.MaxInt64
		} else {
			id.CapFloorHalf = 2 * floor
		}
	}
	id.Digest = h.Sum()
}

// sameShape reports whether subtrees a and b match node for node in
// leafness and group size, with every split in either dividing its
// members in place (splitsInPlace). Under a parent group of one run
// every node of either subtree then holds only that run's boards, so the
// two digest equally. The walk compares pointers and lengths only.
func sameShape(a, b *Tree) bool {
	if a.Group.Size() != b.Group.Size() || a.IsLeaf() != b.IsLeaf() {
		return false
	}
	return a.IsLeaf() || splitsInPlace(a) && splitsInPlace(b) &&
		sameShape(a.Left, b.Left) && sameShape(a.Right, b.Right)
}

// splitsInPlace reports whether t's children hold, left then right,
// exactly t's own members as views of its member slice, the way Bisect
// halves a homogeneous group.
func splitsInPlace(t *Tree) bool {
	if t.Right == nil {
		return false
	}
	m, l, r := t.Group.Accel, t.Left.Group.Accel, t.Right.Group.Accel
	return len(l) > 0 && len(r) > 0 && len(l)+len(r) == len(m) &&
		&l[0] == &m[0] && &r[0] == &m[len(l)]
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
