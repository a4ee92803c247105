package core

import (
	"fmt"
	"strings"

	"accpar/internal/cost"
)

// LayerExplanation breaks down, for one weighted layer at one split, what
// each partition type would cost and why the chosen one won — the cost
// model made inspectable.
type LayerExplanation struct {
	// Unit is the layer name.
	Unit string
	// Chosen is the selected type.
	Chosen cost.Type
	// UnitCost is the layer's own cost (compute + intra-layer psum) per
	// candidate type under the plan's objective: seconds, or bytes for a
	// plan searched with ObjectiveCommOnly.
	UnitCost map[cost.Type]float64
	// IntraBytes is the Table 4 partial-sum traffic per candidate type.
	IntraBytes map[cost.Type]float64
	// InEdgeCost and OutEdgeCost are the conversion costs actually paid on
	// this layer's incoming and outgoing boundaries under the full chosen
	// assignment, in UnitCost's unit.
	InEdgeCost, OutEdgeCost float64
}

// splitCtx readies one of the shape's level contexts for split n solved
// at dims: reset to the split's sides, at its ratio. A context built on
// the shape of the search that produced n is the one that search solved
// n on, linearized planSegs included.
func (s *searchShape) splitCtx(dims []extents, n *PlanNode) *levelCtx {
	ctx := s.levels.Get().(*levelCtx).reset(dims, n.SideI, n.SideJ)
	ctx.alpha = n.Alpha
	return ctx
}

// Explain breaks down the root-split decision for every real weighted
// layer of the plan.
func (p *Plan) Explain() ([]LayerExplanation, error) {
	n := p.Root
	if n.IsLeaf() {
		return nil, fmt.Errorf("core: single-accelerator plan has no split to explain")
	}
	shape := newSearchShape(p.Network, p.opt.withDefaults())
	ctx := shape.splitCtx(shape.rootDims, n)
	units := shape.units
	var out []LayerExplanation
	edges := ctx.edges
	for u, l := range units {
		if l.Virtual {
			continue
		}
		ex := LayerExplanation{
			Unit:       l.Name,
			Chosen:     n.Types[u],
			UnitCost:   map[cost.Type]float64{},
			IntraBytes: map[cost.Type]float64{},
		}
		sizes := ctx.consts[u].sizes(ctx.dims[u], false)
		var intra [3]float64
		sizes.intra(&intra, false)
		for _, t := range cost.Types {
			ex.UnitCost[t] = ctx.unitCost(u, t)
			ex.IntraBytes[t] = intra[t] * 2
		}
		for _, e := range edges {
			c := ctx.edgeCost(e[0], e[1], n.Types[e[0]], n.Types[e[1]])
			if e[1] == u {
				ex.InEdgeCost += c
			}
			if e[0] == u {
				ex.OutEdgeCost += c
			}
		}
		out = append(out, ex)
	}
	return out, nil
}

// ExplainString renders the explanation as an aligned table.
func (p *Plan) ExplainString() (string, error) {
	exs, err := p.Explain()
	if err != nil {
		return "", err
	}
	unit := "seconds"
	if p.opt.Objective == ObjectiveCommOnly {
		unit = "bytes"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "root split %s, alpha %.3f — per-layer costs in %s\n", p.Root.GroupDesc, p.Root.Alpha, unit)
	fmt.Fprintf(&b, "%-12s %-8s %-12s %-12s %-12s %-12s %-12s\n",
		"layer", "chosen", "cost(I)", "cost(II)", "cost(III)", "in-conv", "out-conv")
	for _, ex := range exs {
		fmt.Fprintf(&b, "%-12s %-8s %-12.4g %-12.4g %-12.4g %-12.4g %-12.4g\n",
			ex.Unit, ex.Chosen.Short(),
			ex.UnitCost[cost.TypeI], ex.UnitCost[cost.TypeII], ex.UnitCost[cost.TypeIII],
			ex.InEdgeCost, ex.OutEdgeCost)
	}
	return b.String(), nil
}
