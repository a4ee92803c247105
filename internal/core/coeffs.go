package core

import (
	"accpar/internal/cost"
	"accpar/internal/tensor"
)

// This file precomputes the cost-model coefficients the hot search paths
// evaluate: every Table 5 transition is one of three closed forms in the
// ratio α (zero, αβ-bilinear, or β-linear), and every per-unit quantity
// (FLOPs, Table 4 intra-layer elements, boundary tensor sizes) is a pure
// function of the unit's effective dims. Computing them once per split
// turns unitCost/edgeCost during runDP — and the whole g(α) balance
// function during the solveRatio bisection — into O(1) arithmetic instead
// of re-deriving tensor shares on every call.

// patKind classifies a (prev, next) type transition into its closed form
// in α: the transferred elements are 0, αβ·2b, αβ·b or β·b for a boundary
// of b elements (Table 5; the inference column keeps only the F-tensor
// component of each pattern).
type patKind uint8

const (
	// patZero: no conversion.
	patZero patKind = iota
	// patAB2: αβ·(b+b) — both F and E tensors convert.
	patAB2
	// patAB1: αβ·b — one tensor's αβ corner block (the F half of an
	// αβ pattern, all inference keeps of it).
	patAB1
	// patBeta: β·b — a β-sized slab of one tensor.
	patBeta
)

// patTrain[prev][next] classifies the training-mode transition (the sum
// of both tensor components, matching cost.InterCommElements) and
// patInfer[prev][next] the inference-mode one (the F component only,
// matching the fwd return of cost.InterCommSplit: inference never
// produces errors). Both are read off cost.Conversion once.
var patTrain, patInfer = patTables()

func patTables() (train, infer [3][3]patKind) {
	for prev, row := range cost.Conversion {
		for next, c := range row {
			train[prev][next] = patOf(c.F, c.E)
			infer[prev][next] = patOf(c.F, cost.NoConversion)
		}
	}
	return train, infer
}

// patOf classifies a transition's combined F and E components.
func patOf(f, e cost.Component) patKind {
	type fe = [2]cost.Component
	switch (fe{f, e}) {
	case fe{cost.NoConversion, cost.NoConversion}:
		return patZero
	case fe{cost.AlphaBeta, cost.AlphaBeta}:
		return patAB2
	case fe{cost.AlphaBeta, cost.NoConversion}, fe{cost.NoConversion, cost.AlphaBeta}:
		return patAB1
	case fe{cost.BetaSlab, cost.NoConversion}, fe{cost.NoConversion, cost.BetaSlab}:
		return patBeta
	}
	panic("core: Table 5 transition without a closed form")
}

// patElems evaluates a classified pattern for the side whose ratio is
// alpha. The expressions round as cost.InterCommElements does (its αβ
// sum of two equal components is αβ·(b+b) exactly), so the cached path
// is bit-identical to the direct one.
func patElems(k patKind, boundary, alpha, beta float64) float64 {
	switch k {
	case patAB2:
		return alpha * beta * (boundary + boundary)
	case patAB1:
		return alpha * beta * boundary
	case patBeta:
		return beta * boundary
	default:
		return 0
	}
}

// pat returns the mode-appropriate classification table.
func (c *levelCtx) pat() *[3][3]patKind {
	if c.opt.Mode == ModeInference {
		return &patInfer
	}
	return &patTrain
}

// prepare fills the per-unit caches: mode-appropriate FLOPs, Table 4
// intra-layer elements per type, and the A(F_l)/A(F_{l+1}) boundary
// inputs. Called once per split; every unitCost/edgeCost/evalLevel
// evaluation afterwards is pure arithmetic over these arrays. The arrays
// are allocated on a context's first split and rewritten in place after.
func (c *levelCtx) prepare() {
	n := len(c.units)
	if len(c.flopsU) != n {
		c.flopsU = make([]float64, n)
		c.intraU = make([][3]float64, n)
		c.afU = make([]int64, n)
		c.afNextU = make([]int64, n)
	}
	for u := range c.units {
		info := c.units[u]
		c.afU[u] = info.dims.AF()
		c.afNextU[u] = info.dims.AFNext()
		if info.layer.Virtual {
			c.flopsU[u], c.intraU[u] = 0, [3]float64{}
			continue
		}
		if c.opt.Mode == ModeInference {
			c.flopsU[u] = float64(tensor.InferenceFLOPs(info.dims))
			for _, t := range cost.Types {
				c.intraU[u][t] = float64(cost.IntraCommElementsInference(t, info.dims))
			}
		} else {
			c.flopsU[u] = float64(cost.ComputeFLOPs(info.dims))
			for _, t := range cost.Types {
				c.intraU[u][t] = float64(cost.IntraCommElements(t, info.dims))
			}
		}
	}
}

// ratioCoeffs aggregates a fixed type assignment's level cost into the
// closed form the Eq. 10 balance needs:
//
//	TimeI(α) = α·compI + constI + (1−α)·betaI + α(1−α)·abI
//	TimeJ(α) = (1−α)·compJ + constJ + α·betaJ + α(1−α)·abJ
//
// so one g(α) = TimeI − TimeJ evaluation during the bisection costs a
// handful of multiplications instead of a full O(units + edges) sweep.
type ratioCoeffs struct {
	compI, compJ   float64
	constI, constJ float64
	betaI, betaJ   float64
	abI, abJ       float64
}

// ratioCoeffs computes the aggregate coefficients for the assignment.
func (c *levelCtx) ratioCoeffs(types []cost.Type) ratioCoeffs {
	var rc ratioCoeffs
	var flops, intraBytes float64
	for u := range c.units {
		if c.units[u].layer.Virtual {
			continue
		}
		flops += c.flopsU[u]
		intraBytes += c.intraU[u][types[u]] * tensor.BytesPerElement
	}
	rc.compI = flops / c.sideI.Compute
	rc.compJ = flops / c.sideJ.Compute
	rc.constI = intraBytes / c.sideI.Net
	rc.constJ = intraBytes / c.sideJ.Net
	pat := c.pat()
	var betaBytes, abBytes float64
	for _, e := range c.edges() {
		b := float64(c.boundary(e[0], e[1]))
		switch pat[types[e[0]]][types[e[1]]] {
		case patAB2:
			abBytes += (b + b) * tensor.BytesPerElement
		case patAB1:
			abBytes += b * tensor.BytesPerElement
		case patBeta:
			betaBytes += b * tensor.BytesPerElement
		}
	}
	// A β-slab edge costs side I (ratio α) (1−α)·bytes and side J (ratio
	// 1−α) α·bytes; the αβ-bilinear edges cost both sides the same αβ
	// multiple of their bytes.
	rc.betaI = betaBytes / c.sideI.Net
	rc.betaJ = betaBytes / c.sideJ.Net
	rc.abI = abBytes / c.sideI.Net
	rc.abJ = abBytes / c.sideJ.Net
	return rc
}

// g evaluates the balance function TimeI(α) − TimeJ(α) in O(1).
func (rc ratioCoeffs) g(alpha float64) float64 {
	beta := 1 - alpha
	ti := alpha*rc.compI + rc.constI + beta*rc.betaI + alpha*beta*rc.abI
	tj := beta*rc.compJ + rc.constJ + alpha*rc.betaJ + alpha*beta*rc.abJ
	return ti - tj
}
