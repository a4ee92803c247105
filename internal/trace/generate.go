package trace

import (
	"fmt"
	"math"

	"accpar/internal/cost"
	"accpar/internal/tensor"
)

// SplitShare converts a partitioning ratio into an integer share of a
// dimension: round(alpha·total) clamped to [0, total]. The peer's share is
// total − share, so the two sides always conserve the dimension exactly.
func SplitShare(total int, alpha float64) int {
	s := int(math.Round(alpha * float64(total)))
	if s < 0 {
		return 0
	}
	if s > total {
		return total
	}
	return s
}

// Assignment describes one accelerator's view of one weighted layer: the
// layer dims, the partition type, and the integer share of the partitioned
// dimension this accelerator owns.
type Assignment struct {
	Dims tensor.LayerDims
	Type cost.Type
	// Share is the owned extent of the partitioned dimension (B for
	// Type-I, D_i for Type-II, D_o for Type-III).
	Share int
}

// PartitionedTotal returns the full extent of the partitioned dimension.
func (a Assignment) PartitionedTotal() int {
	switch a.Type {
	case cost.TypeI:
		return a.Dims.B
	case cost.TypeII:
		return a.Dims.Di
	case cost.TypeIII:
		return a.Dims.Do
	default:
		panic("trace: invalid type")
	}
}

// Validate rejects invalid assignments.
func (a Assignment) Validate() error {
	if err := a.Dims.Validate(); err != nil {
		return err
	}
	if a.Share < 0 || a.Share > a.PartitionedTotal() {
		return fmt.Errorf("trace: share %d out of [0,%d] for %v", a.Share, a.PartitionedTotal(), a.Type)
	}
	return nil
}

// recordsPerTrace is the most records Generate emits for one assignment
// (18 for every type), so a trace is built in one allocation.
const recordsPerTrace = 18

// Generate derives the full training-iteration trace (forward, backward,
// gradient) of one accelerator under the assignment. Feature-map and error
// tensors are traced element-wise (granule 1); kernels kernel-wise (granule
// KH·KW), matching the paper's trace granularity. A zero share yields an
// empty trace for compute but still performs the remote psum load its peer
// produced if the phase requires combination — a share of zero is treated
// as "holds the result replica" only when share > 0; fully empty shares
// produce no records.
func Generate(a Assignment) (*Trace, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	d := a.Dims
	g := int64(d.KH) * int64(d.KW) // kernel granule
	spIn := int64(d.HIn) * int64(d.WIn)
	spOut := int64(d.HOut) * int64(d.WOut)
	b, di, do := int64(d.B), int64(d.Di), int64(d.Do)
	share := int64(a.Share)

	if share == 0 {
		return &Trace{}, nil
	}
	tr := &Trace{Records: make([]Record, 0, recordsPerTrace)}

	switch a.Type {
	case cost.TypeI:
		myB := share
		// Forward: disjoint batch slices, replicated kernel, no remote.
		tr.add(cost.PhaseForward, OpLoad, "F_l", myB*di*spIn, 1)
		tr.add(cost.PhaseForward, OpLoad, "W_l", di*do, g)
		tr.add(cost.PhaseForward, OpMult, "F_l+1", myB*do*spOut*di*g, 1)
		tr.add(cost.PhaseForward, OpAdd, "F_l+1", myB*do*spOut*(di*g-1), 1)
		tr.add(cost.PhaseForward, OpStore, "F_l+1", myB*do*spOut, 1)
		// Backward: disjoint batch slices against W^T.
		tr.add(cost.PhaseBackward, OpLoad, "E_l+1", myB*do*spOut, 1)
		tr.add(cost.PhaseBackward, OpLoad, "W_l^T", di*do, g)
		tr.add(cost.PhaseBackward, OpMult, "E_l", myB*di*spIn*do*g, 1)
		tr.add(cost.PhaseBackward, OpAdd, "E_l", myB*di*spIn*(do*g-1), 1)
		tr.add(cost.PhaseBackward, OpStore, "E_l", myB*di*spIn, 1)
		// Gradient: local accumulation over the owned batch slice, then
		// remote access of the peer's partial-sum tensor (Table 4: A(W_l)).
		tr.add(cost.PhaseGradient, OpLoad, "F_l", myB*di*spIn, 1)
		tr.add(cost.PhaseGradient, OpLoad, "E_l+1", myB*do*spOut, 1)
		tr.add(cost.PhaseGradient, OpMult, "dW_l", di*do*g*myB*spOut, 1)
		tr.add(cost.PhaseGradient, OpAdd, "dW_l", di*do*g*(myB*spOut-1), 1)
		tr.add(cost.PhaseGradient, OpStore, "dW_l.psum", di*do, g)
		tr.add(cost.PhaseGradient, OpRemoteLoad, "dW_l.psum", di*do, g)
		tr.add(cost.PhaseGradient, OpAdd, "dW_l.combine", di*do*g, 1)
		tr.add(cost.PhaseGradient, OpStore, "dW_l", di*do, g)

	case cost.TypeII:
		myDi := share
		// Forward: partial products over the owned input channels, local
		// accumulation, remote psum access (Table 4: A(F_{l+1})).
		tr.add(cost.PhaseForward, OpLoad, "F_l", b*myDi*spIn, 1)
		tr.add(cost.PhaseForward, OpLoad, "W_l", myDi*do, g)
		tr.add(cost.PhaseForward, OpMult, "F_l+1", b*do*spOut*myDi*g, 1)
		tr.add(cost.PhaseForward, OpAdd, "F_l+1", b*do*spOut*(myDi*g-1), 1)
		tr.add(cost.PhaseForward, OpStore, "F_l+1.psum", b*do*spOut, 1)
		tr.add(cost.PhaseForward, OpRemoteLoad, "F_l+1.psum", b*do*spOut, 1)
		tr.add(cost.PhaseForward, OpAdd, "F_l+1.combine", b*do*spOut, 1)
		tr.add(cost.PhaseForward, OpStore, "F_l+1", b*do*spOut, 1)
		// Backward: E_{l+1} replicated, disjoint E_l channel slices.
		tr.add(cost.PhaseBackward, OpLoad, "E_l+1", b*do*spOut, 1)
		tr.add(cost.PhaseBackward, OpLoad, "W_l^T", myDi*do, g)
		tr.add(cost.PhaseBackward, OpMult, "E_l", b*myDi*spIn*do*g, 1)
		tr.add(cost.PhaseBackward, OpAdd, "E_l", b*myDi*spIn*(do*g-1), 1)
		tr.add(cost.PhaseBackward, OpStore, "E_l", b*myDi*spIn, 1)
		// Gradient: disjoint ΔW input-channel slices, no remote.
		tr.add(cost.PhaseGradient, OpLoad, "F_l", b*myDi*spIn, 1)
		tr.add(cost.PhaseGradient, OpLoad, "E_l+1", b*do*spOut, 1)
		tr.add(cost.PhaseGradient, OpMult, "dW_l", myDi*do*g*b*spOut, 1)
		tr.add(cost.PhaseGradient, OpAdd, "dW_l", myDi*do*g*(b*spOut-1), 1)
		tr.add(cost.PhaseGradient, OpStore, "dW_l", myDi*do, g)

	case cost.TypeIII:
		myDo := share
		// Forward: F_l replicated, disjoint F_{l+1} channel slices.
		tr.add(cost.PhaseForward, OpLoad, "F_l", b*di*spIn, 1)
		tr.add(cost.PhaseForward, OpLoad, "W_l", di*myDo, g)
		tr.add(cost.PhaseForward, OpMult, "F_l+1", b*myDo*spOut*di*g, 1)
		tr.add(cost.PhaseForward, OpAdd, "F_l+1", b*myDo*spOut*(di*g-1), 1)
		tr.add(cost.PhaseForward, OpStore, "F_l+1", b*myDo*spOut, 1)
		// Backward: partial E_l over owned output channels, local
		// accumulation, remote psum access (Table 4: A(E_l)).
		tr.add(cost.PhaseBackward, OpLoad, "E_l+1", b*myDo*spOut, 1)
		tr.add(cost.PhaseBackward, OpLoad, "W_l^T", di*myDo, g)
		tr.add(cost.PhaseBackward, OpMult, "E_l", b*di*spIn*myDo*g, 1)
		tr.add(cost.PhaseBackward, OpAdd, "E_l", b*di*spIn*(myDo*g-1), 1)
		tr.add(cost.PhaseBackward, OpStore, "E_l.psum", b*di*spIn, 1)
		tr.add(cost.PhaseBackward, OpRemoteLoad, "E_l.psum", b*di*spIn, 1)
		tr.add(cost.PhaseBackward, OpAdd, "E_l.combine", b*di*spIn, 1)
		tr.add(cost.PhaseBackward, OpStore, "E_l", b*di*spIn, 1)
		// Gradient: disjoint ΔW output-channel slices, no remote.
		tr.add(cost.PhaseGradient, OpLoad, "F_l", b*di*spIn, 1)
		tr.add(cost.PhaseGradient, OpLoad, "E_l+1", b*myDo*spOut, 1)
		tr.add(cost.PhaseGradient, OpMult, "dW_l", di*myDo*g*b*spOut, 1)
		tr.add(cost.PhaseGradient, OpAdd, "dW_l", di*myDo*g*(b*spOut-1), 1)
		tr.add(cost.PhaseGradient, OpStore, "dW_l", di*myDo, g)
	}
	return tr, nil
}

// GeneratePair derives the traces of both accelerators of a bi-partition:
// side i gets SplitShare(total, alpha), side j the remainder.
func GeneratePair(d tensor.LayerDims, t cost.Type, alpha float64) (i, j *Trace, err error) {
	base := Assignment{Dims: d, Type: t}
	total := base.PartitionedTotal()
	si := base
	si.Share = SplitShare(total, alpha)
	sj := base
	sj.Share = total - si.Share
	i, err = Generate(si)
	if err != nil {
		return nil, nil, err
	}
	j, err = Generate(sj)
	if err != nil {
		return nil, nil, err
	}
	return i, j, nil
}
