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

// EdgeBoundary returns the size of the tensor converted on the edge from
// a producer layer to a consumer layer: the smaller of the producer's
// output and the consumer's input. They differ when a non-weighted
// operator sits between the layers (pooling shrinks the map — the
// post-pool tensor is what crosses the boundary) or when the consumer is
// a concatenation junction (each incoming edge carries only the
// producer's channel slice).
func EdgeBoundary(producer, consumer tensor.LayerDims) int64 {
	return min(producer.AFNext(), consumer.AF())
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
