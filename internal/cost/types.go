// Package cost implements the AccPar cost model (Section 4 of the paper):
// the three basic tensor partitioning types, intra-layer communication cost
// (Table 4), inter-layer communication cost for all nine type-transition
// patterns (Table 5), computation cost (Table 6 with the Section 4.3
// convolution extension), and the partitioning-ratio equation (Eq. 10).
//
// Communication quantities are expressed in tensor elements; callers convert
// to seconds by multiplying with tensor.BytesPerElement and dividing by a
// group's network bandwidth b_i. Computation quantities are FLOPs; callers
// divide by a group's computation density c_i.
package cost

import (
	"fmt"

	"accpar/internal/tensor"
)

// Type is one of the three basic tensor partitioning types (Section 3.2).
type Type int

const (
	// TypeI partitions the batch dimension B: feature maps and errors are
	// split across accelerators, the kernel W_l is replicated, and the
	// gradient phase requires partial-sum exchange. Type-I is classic data
	// parallelism.
	TypeI Type = iota
	// TypeII partitions the input data size D_{i,l}: the kernel is split
	// along its input dimension, E_{l+1} is replicated, and the forward
	// phase requires partial-sum exchange. Type-II matches the usual notion
	// of model parallelism.
	TypeII
	// TypeIII partitions the output data size D_{o,l}: the kernel is split
	// along its output dimension, F_l is replicated, and the backward phase
	// requires partial-sum exchange. Type-III is the configuration
	// overlooked by OWT and HyPar.
	TypeIII
)

// Types lists the complete basic partitioning space (Section 3.4 proves
// completeness: only B, D_i and D_o appear, and only one can be free).
var Types = []Type{TypeI, TypeII, TypeIII}

// String names the type as in the paper.
func (t Type) String() string {
	switch t {
	case TypeI:
		return "Type-I"
	case TypeII:
		return "Type-II"
	case TypeIII:
		return "Type-III"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Short returns a one-character label for compact layer maps (Figure 7).
func (t Type) Short() string {
	switch t {
	case TypeI:
		return "I"
	case TypeII:
		return "II"
	case TypeIII:
		return "III"
	default:
		return "?"
	}
}

// Dim returns the tensor dimension the type partitions.
func (t Type) Dim() tensor.Dim {
	switch t {
	case TypeI:
		return tensor.DimB
	case TypeII:
		return tensor.DimDi
	case TypeIII:
		return tensor.DimDo
	default:
		panic(fmt.Sprintf("cost: invalid type %d", int(t)))
	}
}

// PsumPhase identifies the training phase whose partial sums require
// intra-layer communication under each type (Section 3.2): gradient for
// Type-I, forward for Type-II, backward for Type-III.
type Phase int

const (
	// PhaseForward is F_{l+1} = F_l × W_l.
	PhaseForward Phase = iota
	// PhaseBackward is E_l = (E_{l+1} × W_l^T) ⊙ f'(F_l).
	PhaseBackward
	// PhaseGradient is ΔW_l = F_l^T × E_{l+1}.
	PhaseGradient
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseForward:
		return "forward"
	case PhaseBackward:
		return "backward"
	case PhaseGradient:
		return "gradient"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// PsumPhase returns the phase in which the type incurs intra-layer
// communication.
func (t Type) PsumPhase() Phase {
	switch t {
	case TypeI:
		return PhaseGradient
	case TypeII:
		return PhaseForward
	case TypeIII:
		return PhaseBackward
	default:
		panic(fmt.Sprintf("cost: invalid type %d", int(t)))
	}
}
