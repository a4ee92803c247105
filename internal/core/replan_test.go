package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

func treeFor(t testing.TB, groups ...hardware.GroupSpec) *hardware.Tree {
	t.Helper()
	arr, err := hardware.NewHeterogeneous(groups...)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func v2v3Groups(n int) []hardware.GroupSpec {
	return []hardware.GroupSpec{
		{Spec: hardware.TPUv2(), Count: n},
		{Spec: hardware.TPUv3(), Count: n},
	}
}

// stalePlan is the cold reference for ReplanCtx's stale pass
// (staleNodeInc): a fresh planner with no retained state. It re-costs an
// existing plan's decisions — the per-node type assignments and ratios
// chosen for pristine hardware — against a different (typically
// degraded) hardware tree. This is what actually
// happens when accelerators degrade under a plan that is not re-derived:
// the work distribution stays fixed while the resources it was balanced
// for no longer exist. Where the degraded tree's structure diverges from
// the plan's (a group loss pruned whole subtrees), no stale decision
// applies and the subtree is partitioned fresh — the honest model of a
// runtime that must improvise placement for orphaned shards.
func stalePlan(net *dnn.Network, plan *Plan, tree *hardware.Tree, opt Options) (*Plan, error) {
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
func (p *planner) staleNode(node *hardware.Tree, old *PlanNode, dims []extents) (*PlanNode, error) {
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
		return leafNode(node, p.consts, dims, p.opt)
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

	left, err := p.staleNode(node.Left, old.Left, p.scaled(dims, types, alpha))
	if err != nil {
		return nil, err
	}
	right, err := p.staleNode(node.Right, old.Right, p.scaled(dims, types, 1-alpha))
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

// TestStalePlanIdentity: re-costing a plan on the tree it was derived for
// reproduces its time exactly.
func TestStalePlanIdentity(t *testing.T) {
	net, err := models.BuildNetwork("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	tree := treeFor(t, v2v3Groups(4)...)
	plan, err := PartitionCtx(context.Background(), net, tree, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	stale, err := stalePlan(net, plan, tree, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(stale.Time() - plan.Time()); d > 1e-12*plan.Time() {
		t.Errorf("identity re-cost drifted: %g vs %g", stale.Time(), plan.Time())
	}
	if stale.Root.Alpha != plan.Root.Alpha {
		t.Errorf("identity re-cost changed alpha: %g vs %g", stale.Root.Alpha, plan.Root.Alpha)
	}
}

// TestReplanBeatsStaleUnderSlowdown: with the work-carrying group slowed
// down, the adopted replanned plan is never worse than the stale plan,
// and for a substantial compute slowdown it is strictly better (α
// rebalances toward the healthy group).
func TestReplanBeatsStaleUnderSlowdown(t *testing.T) {
	net, err := models.BuildNetwork("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(4)
	pristine := treeFor(t, groups...)
	// Slow the TPU-v3 group: at this scale the balance assigns it nearly
	// all the work, so degrading it is what actually hurts.
	deg, err := hardware.DegradeGroups(groups, map[int]hardware.Degradation{
		1: {Compute: 4, MemBW: 1, NetBW: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	degraded := treeFor(t, deg...)

	rep, err := ReplanCtx(context.Background(), net, pristine, degraded, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stale.Time() < rep.FaultFree.Time() {
		t.Errorf("degradation sped the stale plan up: %g < %g", rep.Stale.Time(), rep.FaultFree.Time())
	}
	if rep.Replanned.Time() > rep.Stale.Time() {
		t.Errorf("replanned %g worse than stale %g", rep.Replanned.Time(), rep.Stale.Time())
	}
	if !rep.Adopted {
		t.Fatal("4× compute slowdown on the work-carrying group must make a fresh plan worth adopting")
	}
	if !(rep.Replanned.Time() < rep.Stale.Time()) {
		t.Errorf("replanned %g not strictly better than stale %g", rep.Replanned.Time(), rep.Stale.Time())
	}
	if rep.Replanned.Root.Alpha <= rep.Stale.Root.Alpha {
		t.Errorf("root alpha did not shift toward the healthy group: %g -> %g",
			rep.Stale.Root.Alpha, rep.Replanned.Root.Alpha)
	}
	if r := rep.Recovery(); r <= 0 || r > 1 {
		t.Errorf("recovery %g outside (0,1]", r)
	}
}

// TestReplanAfterGroupLoss: losing half of one group changes the tree
// shape below the top split; stale evaluation must still succeed (fresh
// partitioning of the orphaned subtrees) and replanning must not lose to
// the stale plan.
func TestReplanAfterGroupLoss(t *testing.T) {
	net, err := models.BuildNetwork("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(4)
	pristine := treeFor(t, groups...)
	deg, err := hardware.DegradeGroups(groups, map[int]hardware.Degradation{
		1: {Compute: 1, MemBW: 1, NetBW: 1, LostFraction: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	degraded := treeFor(t, deg...)

	rep, err := ReplanCtx(context.Background(), net, pristine, degraded, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replanned.Time() > rep.Stale.Time() {
		t.Errorf("replanned %g worse than stale %g", rep.Replanned.Time(), rep.Stale.Time())
	}
	if err := rep.Stale.Validate(); err != nil {
		t.Errorf("stale plan invalid after shape change: %v", err)
	}
}

// TestDegenerateHardwareTypedError: a group whose density is not finite
// must surface as *DegenerateHardwareError, not as a NaN plan time. Each
// board passes Spec.Validate, but two of them sum to an infinite density.
func TestDegenerateHardwareTypedError(t *testing.T) {
	net, err := models.BuildNetwork("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	huge := hardware.TPUv2()
	huge.FLOPS = math.MaxFloat64
	tree := treeFor(t, hardware.GroupSpec{Spec: huge, Count: 2}, hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 2})
	_, err = PartitionCtx(context.Background(), net, tree, AccPar())
	if err == nil {
		t.Fatal("infinite compute density must fail")
	}
	var dh *DegenerateHardwareError
	if !errors.As(err, &dh) {
		t.Fatalf("error %v is not a DegenerateHardwareError", err)
	}
}
