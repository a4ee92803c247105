package core

import (
	"context"
	"fmt"
	"time"

	"accpar/internal/dnn"
	"accpar/internal/hardware"
)

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
// the degraded one. The passes run in turn on the calling goroutine. With
// Options.Cache set the memo is the cache's memo for the search
// fingerprint, so earlier searches and replans serve the pristine plan,
// recurrent degraded subtrees and memoized stale re-costings, and the
// cache is trimmed to its bound afterwards; without one the planner's
// memo is private to the call. The
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
	// The stale re-costing runs first, then the fresh degraded partition;
	// both consult the memo and share the degraded root's key.
	dkey := p.subproblemKey(degraded, p.rootDims)
	root, err := p.staleNodeInc(degraded, pristine, faultFree.Root, p.rootDims, dkey)
	if err != nil {
		return nil, err
	}
	stale := &Plan{Network: p.net, Strategy: faultFree.Strategy + " (stale)", Root: root, opt: p.opt}
	if err := stale.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal stale-plan inconsistency: %w", err)
	}
	fresh, err := p.planKeyed(degraded, dkey)
	if err != nil {
		return nil, err
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
