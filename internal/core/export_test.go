package core

import (
	"context"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/tensor"
)

// SubproblemKey exposes the memo key to the external test package: the
// key of the subproblem at the extents of dims.
func SubproblemKey(node *hardware.Tree, dims []tensor.LayerDims) [16]byte {
	ext := make([]extents, len(dims))
	for i, d := range dims {
		ext[i] = extentsOf(d)
	}
	return (*planner)(nil).subproblemKey(node, ext)
}

// newPlanner validates the inputs and builds the state of a one-off
// search of net, collecting no stats; see searchNet.planner.
func newPlanner(ctx context.Context, net *dnn.Network, opt Options) (*planner, error) {
	return (&searchNet{net: net}).planner(ctx, opt)
}

// rootCtx builds a level context over net's own search shape under opt,
// reset at the network's root extents between sides sideI and sideJ: the
// way the search builds one, flattened structure under Linearize
// included.
func rootCtx(net *dnn.Network, opt Options, sideI, sideJ Side) *levelCtx {
	s := newSearchShape(net, opt)
	return newLevelCtx(s, opt).reset(s.rootDims, sideI, sideJ)
}

// scaled returns the extents of one child of a split at (dims, types,
// ratio) in a fresh slice: what a plan walker derives, as the search did.
func (s *searchShape) scaled(dims []extents, types []cost.Type, ratio float64) []extents {
	out := make([]extents, len(dims))
	s.scaleInto(out, dims, types, ratio)
	return out
}

// layerDims returns the units' own dims, the dims of every plan root.
func layerDims(units []dnn.WeightedLayer) []tensor.LayerDims {
	dims := make([]tensor.LayerDims, len(units))
	for i := range units {
		dims[i] = units[i].Dims
	}
	return dims
}
