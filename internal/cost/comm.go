package cost

import (
	"accpar/internal/tensor"
)

// IntraCommElements returns the intra-layer communication amount, in tensor
// elements, incurred by one accelerator under partitioning type t at a
// layer with dims d (Table 4 of the paper):
//
//	Type-I   → A(W_l)      (partial sums of ΔW_l in the gradient phase)
//	Type-II  → A(F_{l+1})  (partial sums of F_{l+1} in the forward phase)
//	Type-III → A(E_l)      (partial sums of E_l in the backward phase)
//
// The amount does not depend on the partitioning ratio α: intermediate
// results are accumulated locally, so only the partial-sum tensor itself is
// accessed remotely (the Table 4 note).
func IntraCommElements(t Type, d tensor.LayerDims) int64 {
	switch t {
	case TypeI:
		return d.AW()
	case TypeII:
		return d.AFNext()
	case TypeIII:
		return d.AF()
	default:
		panic("cost: invalid type")
	}
}

// IntraCommElementsInference returns the intra-layer exchange of the
// forward phase only — what DNN inference (data forward only, Section 1)
// incurs: the Table 4 amount of a type whose partial sums fall in the
// forward phase (Type-II's F_{l+1}), and nothing for the types whose
// partial sums belong to the backward or gradient phase, which inference
// never runs.
func IntraCommElementsInference(t Type, d tensor.LayerDims) int64 {
	if t.PsumPhase() != PhaseForward {
		return 0
	}
	return IntraCommElements(t, d)
}

// PhaseStreamBytes returns the local memory traffic of one phase of a
// layer with dims d: two operands streamed in and the result streamed
// out. Every phase touches tensors of the same three sizes — forward
// reads F_l and W_l and writes F_{l+1}, backward reads E_{l+1} and W_l
// and writes E_l, gradient reads F_l and E_{l+1} and writes ΔW_l — so one
// sum serves all three.
func PhaseStreamBytes(d tensor.LayerDims) float64 {
	return float64(d.AF()+d.AW()+d.AFNext()) * tensor.BytesPerElement
}

// Component is one tensor's share of a Table 5 conversion across a
// boundary of A elements, for the accelerator whose ratio is α (its peer
// has β = 1−α).
type Component uint8

const (
	// NoConversion: the tensor is already laid out as the consumer needs.
	NoConversion Component = iota
	// AlphaBeta: the αβ·A corner block converts.
	AlphaBeta
	// BetaSlab: a β·A slab converts.
	BetaSlab
)

// elements evaluates the component for a boundary of a elements.
func (c Component) elements(a, alpha, beta float64) float64 {
	switch c {
	case AlphaBeta:
		return alpha * beta * a
	case BetaSlab:
		return beta * a
	default:
		return 0
	}
}

// Transition is one Table 5 entry: the feature-map conversion F_{l+1}
// (paid during the forward phase) and the error conversion E_{l+1} (paid
// during the backward phase).
type Transition struct{ F, E Component }

// Conversion is Table 5 of the paper, the inter-layer conversion when
// layer l uses type prev and layer l+1 uses type next, indexed
// Conversion[prev][next]. Patterns (a) I→I, (f) II→III and (h) III→II
// keep the same partitioning across the boundary; (b) I→II and (g) III→I
// convert the αβ corner block of both tensors; (c) I→III and (i)
// III→III convert a β slab of the feature map, (d) II→I and (e) II→II a
// β slab of the error. For the αβ patterns both directions cost the
// same, since (1−α)(1−β) = βα when α+β = 1 (Section 4.1.2).
var Conversion = [3][3]Transition{
	TypeI:   {TypeI: {}, TypeII: {AlphaBeta, AlphaBeta}, TypeIII: {BetaSlab, NoConversion}},
	TypeII:  {TypeI: {NoConversion, BetaSlab}, TypeII: {NoConversion, BetaSlab}, TypeIII: {}},
	TypeIII: {TypeI: {AlphaBeta, AlphaBeta}, TypeII: {}, TypeIII: {BetaSlab, NoConversion}},
}

// InterCommSplit returns the two Table 5 components, in tensor elements,
// remotely accessed by the accelerator whose partitioning ratio is alpha
// when layer l uses type prev and layer l+1 uses type next: the
// feature-map conversion (forward phase) and the error conversion
// (backward phase). boundary is A(F_{l+1}) = A(E_{l+1}), the size of the
// tensor crossing the layer boundary. Phase-aware consumers (the
// simulators, inference-mode costing) need the split; the peer's cost
// (ratio beta) comes from swapping alpha and beta.
func InterCommSplit(prev, next Type, boundary int64, alpha, beta float64) (fwd, bwd float64) {
	c := Conversion[prev][next]
	a := float64(boundary)
	return c.F.elements(a, alpha, beta), c.E.elements(a, alpha, beta)
}

// InterCommElements returns the inter-layer communication amount of
// InterCommSplit's accelerator: the sum of both components. For the αβ
// patterns that sum is αβ·(A+A) to the bit, since doubling is exact.
func InterCommElements(prev, next Type, boundary int64, alpha, beta float64) float64 {
	fwd, bwd := InterCommSplit(prev, next, boundary, alpha, beta)
	return fwd + bwd
}

// InterCommTotalElements returns the combined inter-layer traffic of both
// accelerators for the transition, i.e. the sum over the two directions.
// This is the quantity a communication-only objective (HyPar's proxy)
// minimizes.
func InterCommTotalElements(prev, next Type, boundary int64, alpha float64) float64 {
	beta := 1 - alpha
	return InterCommElements(prev, next, boundary, alpha, beta) +
		InterCommElements(prev, next, boundary, beta, alpha)
}

// ComputeFLOPs returns the total FLOPs of one training iteration of a layer
// (forward + backward + gradient, Table 6). An accelerator with
// partitioning ratio α performs α·ComputeFLOPs of them (Eq. 8).
func ComputeFLOPs(d tensor.LayerDims) int64 { return tensor.TrainingFLOPs(d) }

// SolveRatio solves the generalized Eq. 10 for the partitioning ratio α of
// accelerator group i: it balances
//
//	constI + slopeI·α  =  constJ + slopeJ·(1−α)
//
// where slope terms are the ratio-proportional costs (computation, Eq. 8)
// and const terms are the ratio-independent costs (intra-layer partial-sum
// transfers, Table 4 note). With zero const terms this reduces exactly to
// the paper's α·E_i = β·E_j. The result is clamped to [MinRatio, 1−MinRatio]
// so that neither group is starved.
func SolveRatio(constI, slopeI, constJ, slopeJ float64) float64 {
	den := slopeI + slopeJ
	if den <= 0 {
		return 0.5
	}
	alpha := (constJ + slopeJ - constI) / den
	return ClampRatio(alpha)
}

// MinRatio bounds the partitioning ratio away from 0 and 1: a zero ratio
// would mean a group holds no shard at all, which the hierarchy cannot
// represent.
const MinRatio = 1.0 / 4096

// ClampRatio clamps α into [MinRatio, 1−MinRatio].
func ClampRatio(alpha float64) float64 {
	if alpha < MinRatio {
		return MinRatio
	}
	if alpha > 1-MinRatio {
		return 1 - MinRatio
	}
	return alpha
}
