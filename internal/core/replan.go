package core

import (
	"context"
	"fmt"
	"time"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/parallel"
	"accpar/internal/tensor"
)

// StalePlan re-costs an existing plan's decisions — the per-node type
// assignments and ratios chosen for pristine hardware — against a
// different (typically degraded) hardware tree. This is what actually
// happens when accelerators degrade under a plan that is not re-derived:
// the work distribution stays fixed while the resources it was balanced
// for no longer exist. Where the degraded tree's structure diverges from
// the plan's (a group loss pruned whole subtrees), no stale decision
// applies and the subtree is partitioned fresh — the honest model of a
// runtime that must improvise placement for orphaned shards.
func StalePlan(net *dnn.Network, plan *Plan, tree *hardware.Tree, opt Options) (*Plan, error) {
	p, err := newPlanner(context.Background(), net, opt)
	if err != nil {
		return nil, err
	}
	defer p.release()
	if plan == nil || plan.Root == nil {
		return nil, fmt.Errorf("core: stale evaluation needs a plan")
	}
	root, err := p.staleNode(tree, plan.Root, p.rootDims)
	if err != nil {
		return nil, err
	}
	out := &Plan{Network: p.net, Strategy: plan.Strategy + " (stale)", Root: root, opt: p.opt}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal stale-plan inconsistency: %w", err)
	}
	return out, nil
}

// staleNode applies one stale decision to one (possibly degraded)
// hierarchy node.
func (p *planner) staleNode(node *hardware.Tree, old *PlanNode, dims []tensor.LayerDims) (*PlanNode, error) {
	if err := p.checkCtx(); err != nil {
		return nil, err
	}
	if old == nil || node.IsLeaf() != old.IsLeaf() {
		// Structure diverged: no stale decision for this subtree. The fresh
		// partition goes through the memo, so a subtree already solved for
		// the fresh replanning pass (or a symmetric sibling) is reused.
		return p.partitionNode(node, dims)
	}
	if node.IsLeaf() {
		return leafNode(node, p.units, dims, p.opt)
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

	left, err := p.staleNode(node.Left, old.Left, ScaleUnitDims(p.units, dims, types, alpha))
	if err != nil {
		return nil, err
	}
	right, err := p.staleNode(node.Right, old.Right, ScaleUnitDims(p.units, dims, types, 1-alpha))
	if err != nil {
		return nil, err
	}
	return &PlanNode{
		GroupDesc: node.Group.String(),
		Alpha:     alpha,
		Types:     types,
		Eval:      ev,
		SideI:     sideI,
		SideJ:     sideJ,
		Left:      left,
		Right:     right,
	}, nil
}

// ReplanReport compares the three relevant operating points after a
// degradation: the original plan on pristine hardware, the same
// decisions stuck on the degraded hardware (stale), and a fresh
// degradation-aware partition of the degraded hardware.
type ReplanReport struct {
	// FaultFree is the plan on the pristine hierarchy.
	FaultFree *Plan
	// Stale is FaultFree's decisions re-costed on the degraded hierarchy.
	Stale *Plan
	// Replanned is the adopted post-fault plan: the fresh degradation-aware
	// partition when it improves on Stale, otherwise Stale itself (a
	// replanner never switches to a worse plan).
	Replanned *Plan
	// Fresh is the fresh partition of the degraded hierarchy regardless of
	// adoption, for inspection.
	Fresh *Plan
	// Adopted reports whether the fresh plan improved on the stale one.
	Adopted bool
	// Stats reports how much of the replan was served from the memo
	// versus re-solved; see ReplanStats.
	Stats ReplanStats
}

// Recovery returns the fraction of the degradation-induced slowdown the
// replanned plan wins back: (stale − replanned) / (stale − fault-free).
// Zero when the degradation cost nothing.
func (r *ReplanReport) Recovery() float64 {
	gap := r.Stale.Time() - r.FaultFree.Time()
	if gap <= 0 {
		return 0
	}
	return (r.Stale.Time() - r.Replanned.Time()) / gap
}

// ReplanCtx runs the degradation-aware replanning pipeline: partition the
// pristine hierarchy, re-cost those decisions on the degraded hierarchy
// (recomputing nothing — the stale view), partition the degraded
// hierarchy from scratch (recomputing types and α against the post-fault
// specs), and adopt whichever of the two post-fault plans is faster.
//
// One planner serves all three passes, so the memo carries every subtree
// the degradation did not touch from the pristine partition straight into
// the degraded one, and the stale and fresh passes run concurrently when
// Options.Parallelism permits. With Options.Cache set the memo is the
// cache's memo for the search fingerprint, so earlier searches and
// replans serve the pristine plan, recurrent degraded subtrees and
// memoized stale re-costings, and the cache is trimmed to its bound
// afterwards; without one the planner's memo is private to the call. The
// report is byte-identical either way: the cache changes only how much
// was re-computed, which Stats reports. All three passes poll ctx and the
// pipeline aborts with ErrCanceled or ErrDeadlineExceeded without
// publishing a report; only fully solved subproblems reach the memo.
//
// ReplanCtx records no latency observation, no hit count and no event;
// the serving entry points that replan after a fault do (ObserveReplan).
func ReplanCtx(ctx context.Context, net *dnn.Network, pristine, degraded *hardware.Tree, opt Options) (*ReplanReport, error) {
	start := time.Now()
	p, err := newPlanner(ctx, net, opt)
	if err != nil {
		return nil, err
	}
	rs := &replanStats{}
	p.rs = rs
	rep, err := p.replan(pristine, degraded)
	p.release()
	if err != nil {
		return nil, err
	}
	rep.Stats = rs.snapshot(time.Since(start))
	return rep, nil
}

// replan runs ReplanCtx's three passes on the planner's memo.
func (p *planner) replan(pristine, degraded *hardware.Tree) (*ReplanReport, error) {
	faultFree, err := p.plan(pristine)
	if err != nil {
		return nil, err
	}
	// The stale re-costing and the fresh degraded partition are
	// independent given the pristine plan; both consult the memo and share
	// the degraded root's key.
	dkey := p.subproblemKey(degraded, p.rootDims)
	var stale, fresh *Plan
	ctx := p.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	err = parallel.ForEachCtx(ctx, 2, p.opt.Parallelism, func(i int) error {
		if i == 1 {
			var ferr error
			fresh, ferr = p.planKeyed(degraded, dkey)
			return ferr
		}
		root, serr := p.staleNodeInc(degraded, pristine, faultFree.Root, p.rootDims, dkey)
		if serr != nil {
			return serr
		}
		stale = &Plan{Network: p.net, Strategy: faultFree.Strategy + " (stale)", Root: root, opt: p.opt}
		if serr := stale.Validate(); serr != nil {
			return fmt.Errorf("core: internal stale-plan inconsistency: %w", serr)
		}
		return nil
	})
	if err != nil {
		return nil, WrapCtxErr(err)
	}
	rep := &ReplanReport{
		FaultFree: faultFree,
		Stale:     stale,
		Fresh:     fresh,
		Replanned: fresh,
		Adopted:   fresh.Time() < stale.Time(),
	}
	if !rep.Adopted {
		rep.Replanned = stale
	}
	return rep, nil
}
