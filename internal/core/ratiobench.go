package core

import (
	"context"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
)

// RatioBenchCase exposes the Eq. 10 ratio bisection on one prepared
// hierarchy level to external benchmark harnesses (cmd/accpar-bench
// -json). Both solvers answer the same balance question; ClosedForm uses
// the precomputed ratioCoeffs aggregation, Reference re-runs the full
// level-cost sweep at every bisection step.
type RatioBenchCase struct {
	ctx   *levelCtx
	types []cost.Type
}

// NewRatioBenchCase builds the balance problem of the tree's root split
// for the network, with the type assignment the Eq. 9 dynamic programming
// actually chooses there.
func NewRatioBenchCase(net *dnn.Network, tree *hardware.Tree, opt Options) (*RatioBenchCase, error) {
	p, err := newPlanner(context.Background(), net, opt)
	if err != nil {
		return nil, err
	}
	if tree.IsLeaf() {
		return nil, &DegenerateHardwareError{Detail: "ratio bench needs a split hierarchy node"}
	}
	sideI := Side{Compute: tree.Left.Group.ComputeDensity(), Net: p.opt.Topology.BisectionBandwidth(tree.Left.Group)}
	sideJ := Side{Compute: tree.Right.Group.ComputeDensity(), Net: p.opt.Topology.BisectionBandwidth(tree.Right.Group)}
	if err := checkSides(tree.Level, sideI, sideJ); err != nil {
		return nil, err
	}
	ctx := newLevelCtx(p.units, p.rootDims, p.segs, p.planSegs, sideI, sideJ, p.opt)
	ctx.alpha = 0.5
	types, _, err := ctx.runDP()
	if err != nil {
		return nil, err
	}
	return &RatioBenchCase{ctx: ctx, types: types}, nil
}

// ClosedForm solves the balance with the coefficient-based bisection.
func (c *RatioBenchCase) ClosedForm() (float64, error) {
	return c.ctx.solveRatio(c.types)
}

// Reference solves the balance with the per-step full-sweep bisection.
func (c *RatioBenchCase) Reference() (float64, error) {
	return c.ctx.solveRatioReference(c.types)
}
