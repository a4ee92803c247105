package core

import (
	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/tensor"
)

// This file precomputes the cost-model coefficients the hot search paths
// evaluate: every Table 5 transition is one of three closed forms in the
// ratio α (zero, αβ-bilinear, or β-linear), and every per-unit quantity
// (FLOPs, Table 4 intra-layer elements, boundary tensor sizes) is a pure
// function of the unit's effective dims. Computing them once per split
// turns unitRow/edgeRow during runDP — and the whole g(α) balance
// function during the solveRatio bisection — into O(1) arithmetic instead
// of re-deriving tensor shares on every call.
//
// A split changes only B, D_i or D_o (Table 3), so the search carries
// those three extents per unit (extents) and its shape keeps the rest as
// three products fixed for the whole search (unitConst, covered by the
// search fingerprint). Every size the search prices comes from one
// function over the two, unitConst.sizes; memo keys hash the three
// extents alone.

// extents are the three extents of one unit a split can change (Table 3):
// the batch B and the channel counts D_i and D_o. They are a unit's
// effective dims at a hierarchy node; its other six extents never change
// below the root and enter the search only through its unitConst.
type extents struct{ B, Di, Do int64 }

// extentsOf returns the three extents of d.
func extentsOf(d tensor.LayerDims) extents {
	return extents{B: int64(d.B), Di: int64(d.Di), Do: int64(d.Do)}
}

// scale returns the extents one child of a split receives at ratio under
// type t: the type's partitioned extent (Table 3) scaled by ratio with
// tensor.ScaleExtent. A virtual junction unit represents an identity over
// one tensor, so a channel partition (Type-II or Type-III) scales both D_i
// and D_o to keep the identity consistent.
func (e extents) scale(virtual bool, t cost.Type, ratio float64) extents {
	if virtual && t != cost.TypeI {
		e.Di = tensor.ScaleExtent(e.Di, ratio)
		e.Do = tensor.ScaleExtent(e.Do, ratio)
		return e
	}
	switch t.Dim() {
	case tensor.DimB:
		e.B = tensor.ScaleExtent(e.B, ratio)
	case tensor.DimDi:
		e.Di = tensor.ScaleExtent(e.Di, ratio)
	default:
		e.Do = tensor.ScaleExtent(e.Do, ratio)
	}
	return e
}

// unitConst is what a search shape fixes of one unit: whether it is a
// virtual junction, and the products of the extents no split changes.
type unitConst struct {
	virtual bool
	// sIn = HIn·WIn and sOut = HOut·WOut are the input and output
	// feature-map areas, k = KH·KW the kernel window.
	sIn, sOut, k int64
}

// constOf returns the constants of unit u.
func constOf(u *dnn.WeightedLayer) unitConst {
	d := &u.Dims
	return unitConst{
		virtual: u.Virtual,
		sIn:     int64(d.HIn) * int64(d.WIn),
		sOut:    int64(d.HOut) * int64(d.WOut),
		k:       int64(d.KH) * int64(d.KW),
	}
}

// unitSizes are one unit's tensor sizes A(·) and FLOP count C(·) at one
// hierarchy node.
type unitSizes struct {
	// af = A(F_l), afNext = A(F_{l+1}), aw = A(W_l).
	af, afNext, aw int64
	// flops is one iteration's FLOPs: the forward phase only for
	// inference, all three phases for training.
	flops int64
}

// sizes is the search's size function: the sizes and FLOPs of a unit
// with constants u at extents e, for inference or training. It
// multiplies out the tensor.LayerDims sizes (AF, AFNext, AW) and the
// tensor/flops.go formulas over the same factors; int64 products are
// exact, so every value equals theirs bit for bit.
func (u *unitConst) sizes(e extents, inference bool) (s unitSizes) {
	s.af, s.afNext, s.aw = e.B*e.Di*u.sIn, e.B*e.Do*u.sOut, e.Di*e.Do*u.k
	s.flops = s.afNext * (2*e.Di*u.k - 1)
	if !inference {
		s.flops += s.af*(2*e.Do*u.k-1) + s.aw*(2*e.B*u.sOut-1)
	}
	return s
}

// intra writes the Table 4 intra-layer elements of every type into row,
// indexed by type (cost.IntraCommElements). Inference runs the forward
// phase only, so only Type-II, whose partial sums fall there, exchanges
// anything.
func (s *unitSizes) intra(row *[3]float64, inference bool) {
	row[cost.TypeI], row[cost.TypeII], row[cost.TypeIII] = float64(s.aw), float64(s.afNext), float64(s.af)
	if inference {
		row[cost.TypeI], row[cost.TypeIII] = 0, 0
	}
}

// residentBytes returns the unit's resident footprint without optimizer
// state: its kernel shard and gradient, its retained activations and one
// error tensor.
func (s *unitSizes) residentBytes() int64 {
	return (2*s.aw + s.af + s.afNext) * tensor.BytesPerElement
}

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

// prepare fills the per-unit caches from the size function:
// mode-appropriate FLOPs, Table 4 intra-layer elements per type, and the
// A(F_l)/A(F_{l+1}) boundary inputs. Called once per split; every
// unitRow/edgeRow/evalLevel evaluation afterwards is pure arithmetic
// over these arrays. The arrays are allocated on a context's first split
// and rewritten in place after.
func (c *levelCtx) prepare() {
	n := len(c.consts)
	if len(c.flopsU) != n {
		c.flopsU = make([]float64, n)
		c.intraU = make([][3]float64, n)
		c.afU = make([]int64, n)
		c.afNextU = make([]int64, n)
	}
	inference := c.opt.Mode == ModeInference
	for u := range c.consts {
		k := &c.consts[u]
		s := k.sizes(c.dims[u], inference)
		c.afU[u], c.afNextU[u] = s.af, s.afNext
		if k.virtual {
			c.flopsU[u], c.intraU[u] = 0, [3]float64{}
			continue
		}
		c.flopsU[u] = float64(s.flops)
		s.intra(&c.intraU[u], inference)
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
	for u := range c.consts {
		if c.consts[u].virtual {
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
	for _, e := range c.edges {
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
