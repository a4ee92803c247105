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
	if !t.built {
		t.identOnce.Do(t.computeIdentity)
	}
	return t.ident
}

// computeIdentity digests the node's spec list (in group order — member
// order is observable through Group.String) and its children's digests,
// so content-identical subtrees — the two halves of a homogeneous group,
// the untouched subtrees of a pristine and a degraded hierarchy, or the
// same procurement block hanging at different depths of two candidate
// fleets — digest identically even across distinct tree objects.
//
// The spec list enters as the group's maximal runs of (fingerprint,
// count), so a node costs O(runs) hashing however many boards it holds.
// The words go through wordhash: the member count (which fixes where the
// runs end), each run, a leaf/split marker, then the children's digests.
// Twins (see BuildTree) are one node, digested once.
func (t *Tree) computeIdentity() {
	g := t.Group
	h := wordhash.New()
	h.Word(uint64(g.Size()))
	for i := range g.runs {
		h.Word(g.runs[i].fp)
		h.Word(uint64(g.count(i)))
	}
	id := &t.ident
	id.HBMBytes = g.hbm
	if t.IsLeaf() {
		h.Word(leafMarker)
		id.CapFloorHalf = id.HBMBytes
	} else {
		h.Word(splitMarker)
		l, r := t.Left.Identity(), t.Right.Identity()
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

// leafMarker and splitMarker tell a leaf's digest words from a split's.
const (
	leafMarker  = ^uint64(0)
	splitMarker = ^uint64(1)
)
