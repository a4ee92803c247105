package core

import (
	"fmt"
	"time"

	"accpar/internal/cost"
	"accpar/internal/hardware"
)

// This file implements incremental replanning. ReplanCtx runs its
// three passes on one memo — the SharedCache's memo for the search
// fingerprint when Options.Cache is set — so responding to a degradation
// re-solves only the subproblems the fault actually touched: a recurrent
// tree is one root-subproblem hit, and the stale pass memoizes its
// re-costings in the same memo under tagged keys (see staleNodeInc).
// Everything is content-addressed, which splits correctness from
// retention cleanly:
//
//   - correctness: a retained entry can only be hit by a subproblem with
//     byte-identical inputs, so incremental replans are byte-identical
//     to a cold full search on the degraded spec, no matter what the
//     cache kept or evicted — including after aborted calls, which never
//     publish partial entries;
//   - retention: the cache's capacity bound evicts the entries of the
//     least recently served calls first, whatever hardware they were
//     solved for.

// ReplanStats reports what one incremental replanning call did: how
// much retained state it served, how much it invalidated, and how much
// it genuinely re-solved.
type ReplanStats struct {
	// IncrementalHits counts subproblems served from the memo instead of
	// re-solved: a recurrent tree's root, a memoized stale re-costing, or
	// any untouched subtree.
	IncrementalHits int64 `json:"incremental_hits"`
	// Invalidated counts cache entries the call's capacity trims evicted
	// (zero without a cache).
	Invalidated int64 `json:"invalidated"`
	// Expanded counts subproblems solved from scratch.
	Expanded int64 `json:"expanded"`
	// StaleReused counts stale-pass subtrees linked directly from the
	// pristine plan because the fault did not touch their hardware.
	StaleReused int64 `json:"stale_reused"`
	// Seconds is the call's wall-clock duration.
	Seconds float64 `json:"seconds"`
}

// Add accumulates other into s (Seconds sums; portfolio callers report
// the aggregate).
func (s *ReplanStats) Add(other ReplanStats) {
	s.IncrementalHits += other.IncrementalHits
	s.Invalidated += other.Invalidated
	s.Expanded += other.Expanded
	s.StaleReused += other.StaleReused
	s.Seconds += other.Seconds
}

// replanStats is the per-call collector behind ReplanStats; only the
// call's own goroutine touches it. dpRuns, the call's
// Eq. 9 DP runs (decideSplit), is not reported: the work-count tests
// read it to pin the type/ratio alternation's cost.
type replanStats struct {
	hits, expanded, staleReused, invalidated, dpRuns int64
}

func (rs *replanStats) snapshot(d time.Duration) ReplanStats {
	return ReplanStats{
		IncrementalHits: rs.hits,
		Invalidated:     rs.invalidated,
		Expanded:        rs.expanded,
		StaleReused:     rs.staleReused,
		Seconds:         d.Seconds(),
	}
}

// noteStaleReuse records an untouched-hardware stale-pass reuse.
func (p *planner) noteStaleReuse() {
	if p.rs != nil {
		p.rs.staleReused++
	}
}

// staleNodeInc applies one stale decision to one (possibly degraded)
// hierarchy node, mirroring the tests' cold reference (staleNode)
// byte-for-byte with two memo shortcuts: a subtree whose hardware digest
// matches its pristine counterpart pristNode (the node old was solved
// for) is the pristine plan verbatim, and every other re-costing is
// memoized under the memo key (degraded subproblem key, pristine subtree
// digest) — the stale half of memoKey, which keeps these entries apart
// from plain subproblems. key is node's subproblem key at dims when the
// caller already has it (the zero key to hash it here).
//
// The memo key is sound by an invariant of the stale walk: at every node
// where the degraded structure still aligns with the plan's, dims are
// exactly the dims the search solved old at, because both come from the
// same scaleUnit chain from the same root dims with the same
// (α, types) decisions (ClampRatio is idempotent on stored ratios). So
// old is this fingerprint's own solution for (pristine subtree, dims) — a pure
// function of the pristine digest and the dims the key already carries —
// and (degraded subtree, dims, pristine subtree) fully addresses the
// re-costing.
func (p *planner) staleNodeInc(node, pristNode *hardware.Tree, old *PlanNode, dims []extents, key subKey) (*PlanNode, error) {
	if err := p.checkCtx(); err != nil {
		return nil, err
	}
	if old == nil || node.IsLeaf() != old.IsLeaf() {
		// Structure diverged: no stale decision for this subtree. The fresh
		// partition goes through the memo, so a subtree already solved for
		// any fresh pass (or a symmetric sibling) is reused.
		return p.partitionNode(node, dims)
	}
	nid, pid := node.Identity(), pristNode.Identity()
	if pid.Digest == nid.Digest {
		// The fault did not touch this subtree's hardware: re-costing the
		// plan's own decisions on the plan's own hardware reproduces the
		// plan, so the stale plan links the pristine subtree itself.
		p.noteStaleReuse()
		return old, nil
	}
	if key == (subKey{}) {
		key = p.subproblemKey(node, dims)
	}
	mk := memoKey{sub: key, stale: pid.Digest}
	if cached, _, ok := p.memo.get(mk, p.epoch); ok {
		p.noteHit()
		return cached, nil
	}
	if node.IsLeaf() {
		n, err := leafNode(node, p.consts, dims, p.opt)
		if err != nil {
			return nil, err
		}
		p.memo.put(mk, n, p.epoch)
		return n, nil
	}
	sideI := Side{Compute: node.Left.Group.ComputeDensity(), Net: p.opt.Topology.BisectionBandwidth(node.Left.Group)}
	sideJ := Side{Compute: node.Right.Group.ComputeDensity(), Net: p.opt.Topology.BisectionBandwidth(node.Right.Group)}
	if err := checkSides(node.Level, sideI, sideJ); err != nil {
		return nil, err
	}
	if len(old.Types) != len(p.units) {
		return nil, fmt.Errorf("core: stale plan has %d types for %d units", len(old.Types), len(p.units))
	}
	alpha := cost.ClampRatio(old.Alpha)
	types := old.Types
	ev := p.evalSplit(dims, sideI, sideJ, types, alpha)

	// The children are re-costed one after the other, so they take turns
	// on one pooled dims buffer.
	buf := p.getDims()
	defer p.dims.Put(buf)
	child := *buf
	p.scaleInto(child, dims, types, alpha)
	left, err := p.staleNodeInc(node.Left, pristNode.Left, old.Left, child, subKey{})
	if err != nil {
		return nil, err
	}
	p.scaleInto(child, dims, types, 1-alpha)
	right, err := p.staleNodeInc(node.Right, pristNode.Right, old.Right, child, subKey{})
	if err != nil {
		return nil, err
	}
	n := &PlanNode{
		GroupDesc: node.Group.String(),
		Alpha:     alpha,
		Types:     types,
		Eval:      ev,
		SideI:     sideI,
		SideJ:     sideJ,
		Left:      left,
		Right:     right,
	}
	p.memo.put(mk, n, p.epoch)
	return n, nil
}
