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
// KH·KW), matching the paper's trace granularity. A zero share owns no
// slice of the layer and produces no records at all: no compute, no local
// traffic, and no load of the peer's partial sums.
func Generate(a Assignment) (*Trace, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	tr := &Trace{}
	if a.Share == 0 {
		return tr, nil
	}
	tr.Records = make([]Record, 0, recordsPerTrace)
	emit(a, func(phase cost.Phase, op Op, tensorName string, count, granule int64) {
		tr.Records = append(tr.Records, Record{Phase: phase, Op: op, Tensor: tensorName, Count: count, Granule: granule})
	})
	return tr, nil
}

// emit is the one statement of a valid assignment's records: it calls add
// once per record, in trace order, skipping empty records (count ≤ 0) and
// every record of a zero share. Generate appends what it is given; a work
// table (WorkOf) sums it.
func emit(a Assignment, add func(phase cost.Phase, op Op, tensorName string, count, granule int64)) {
	d := a.Dims
	g := int64(d.KH) * int64(d.KW) // kernel granule
	spIn := int64(d.HIn) * int64(d.WIn)
	spOut := int64(d.HOut) * int64(d.WOut)
	b, di, do := int64(d.B), int64(d.Di), int64(d.Do)
	share := int64(a.Share)
	if share == 0 {
		return
	}
	rec := func(phase cost.Phase, op Op, tensorName string, count, granule int64) {
		if count > 0 {
			add(phase, op, tensorName, count, granule)
		}
	}

	switch a.Type {
	case cost.TypeI:
		myB := share
		// Forward: disjoint batch slices, replicated kernel, no remote.
		rec(cost.PhaseForward, OpLoad, "F_l", myB*di*spIn, 1)
		rec(cost.PhaseForward, OpLoad, "W_l", di*do, g)
		rec(cost.PhaseForward, OpMult, "F_l+1", myB*do*spOut*di*g, 1)
		rec(cost.PhaseForward, OpAdd, "F_l+1", myB*do*spOut*(di*g-1), 1)
		rec(cost.PhaseForward, OpStore, "F_l+1", myB*do*spOut, 1)
		// Backward: disjoint batch slices against W^T.
		rec(cost.PhaseBackward, OpLoad, "E_l+1", myB*do*spOut, 1)
		rec(cost.PhaseBackward, OpLoad, "W_l^T", di*do, g)
		rec(cost.PhaseBackward, OpMult, "E_l", myB*di*spIn*do*g, 1)
		rec(cost.PhaseBackward, OpAdd, "E_l", myB*di*spIn*(do*g-1), 1)
		rec(cost.PhaseBackward, OpStore, "E_l", myB*di*spIn, 1)
		// Gradient: local accumulation over the owned batch slice, then
		// remote access of the peer's partial-sum tensor (Table 4: A(W_l)).
		rec(cost.PhaseGradient, OpLoad, "F_l", myB*di*spIn, 1)
		rec(cost.PhaseGradient, OpLoad, "E_l+1", myB*do*spOut, 1)
		rec(cost.PhaseGradient, OpMult, "dW_l", di*do*g*myB*spOut, 1)
		rec(cost.PhaseGradient, OpAdd, "dW_l", di*do*g*(myB*spOut-1), 1)
		rec(cost.PhaseGradient, OpStore, "dW_l.psum", di*do, g)
		rec(cost.PhaseGradient, OpRemoteLoad, "dW_l.psum", di*do, g)
		rec(cost.PhaseGradient, OpAdd, "dW_l.combine", di*do*g, 1)
		rec(cost.PhaseGradient, OpStore, "dW_l", di*do, g)

	case cost.TypeII:
		myDi := share
		// Forward: partial products over the owned input channels, local
		// accumulation, remote psum access (Table 4: A(F_{l+1})).
		rec(cost.PhaseForward, OpLoad, "F_l", b*myDi*spIn, 1)
		rec(cost.PhaseForward, OpLoad, "W_l", myDi*do, g)
		rec(cost.PhaseForward, OpMult, "F_l+1", b*do*spOut*myDi*g, 1)
		rec(cost.PhaseForward, OpAdd, "F_l+1", b*do*spOut*(myDi*g-1), 1)
		rec(cost.PhaseForward, OpStore, "F_l+1.psum", b*do*spOut, 1)
		rec(cost.PhaseForward, OpRemoteLoad, "F_l+1.psum", b*do*spOut, 1)
		rec(cost.PhaseForward, OpAdd, "F_l+1.combine", b*do*spOut, 1)
		rec(cost.PhaseForward, OpStore, "F_l+1", b*do*spOut, 1)
		// Backward: E_{l+1} replicated, disjoint E_l channel slices.
		rec(cost.PhaseBackward, OpLoad, "E_l+1", b*do*spOut, 1)
		rec(cost.PhaseBackward, OpLoad, "W_l^T", myDi*do, g)
		rec(cost.PhaseBackward, OpMult, "E_l", b*myDi*spIn*do*g, 1)
		rec(cost.PhaseBackward, OpAdd, "E_l", b*myDi*spIn*(do*g-1), 1)
		rec(cost.PhaseBackward, OpStore, "E_l", b*myDi*spIn, 1)
		// Gradient: disjoint ΔW input-channel slices, no remote.
		rec(cost.PhaseGradient, OpLoad, "F_l", b*myDi*spIn, 1)
		rec(cost.PhaseGradient, OpLoad, "E_l+1", b*do*spOut, 1)
		rec(cost.PhaseGradient, OpMult, "dW_l", myDi*do*g*b*spOut, 1)
		rec(cost.PhaseGradient, OpAdd, "dW_l", myDi*do*g*(b*spOut-1), 1)
		rec(cost.PhaseGradient, OpStore, "dW_l", myDi*do, g)

	case cost.TypeIII:
		myDo := share
		// Forward: F_l replicated, disjoint F_{l+1} channel slices.
		rec(cost.PhaseForward, OpLoad, "F_l", b*di*spIn, 1)
		rec(cost.PhaseForward, OpLoad, "W_l", di*myDo, g)
		rec(cost.PhaseForward, OpMult, "F_l+1", b*myDo*spOut*di*g, 1)
		rec(cost.PhaseForward, OpAdd, "F_l+1", b*myDo*spOut*(di*g-1), 1)
		rec(cost.PhaseForward, OpStore, "F_l+1", b*myDo*spOut, 1)
		// Backward: partial E_l over owned output channels, local
		// accumulation, remote psum access (Table 4: A(E_l)).
		rec(cost.PhaseBackward, OpLoad, "E_l+1", b*myDo*spOut, 1)
		rec(cost.PhaseBackward, OpLoad, "W_l^T", di*myDo, g)
		rec(cost.PhaseBackward, OpMult, "E_l", b*di*spIn*myDo*g, 1)
		rec(cost.PhaseBackward, OpAdd, "E_l", b*di*spIn*(myDo*g-1), 1)
		rec(cost.PhaseBackward, OpStore, "E_l.psum", b*di*spIn, 1)
		rec(cost.PhaseBackward, OpRemoteLoad, "E_l.psum", b*di*spIn, 1)
		rec(cost.PhaseBackward, OpAdd, "E_l.combine", b*di*spIn, 1)
		rec(cost.PhaseBackward, OpStore, "E_l", b*di*spIn, 1)
		// Gradient: disjoint ΔW output-channel slices, no remote.
		rec(cost.PhaseGradient, OpLoad, "F_l", b*di*spIn, 1)
		rec(cost.PhaseGradient, OpLoad, "E_l+1", b*myDo*spOut, 1)
		rec(cost.PhaseGradient, OpMult, "dW_l", di*myDo*g*b*spOut, 1)
		rec(cost.PhaseGradient, OpAdd, "dW_l", di*myDo*g*(b*spOut-1), 1)
		rec(cost.PhaseGradient, OpStore, "dW_l", di*myDo, g)
	}
}

// pairOf returns the assignments of both accelerators of a bi-partition:
// side i owns SplitShare(total, alpha), side j the remainder.
func pairOf(d tensor.LayerDims, t cost.Type, alpha float64) (i, j Assignment) {
	i = Assignment{Dims: d, Type: t}
	j = i
	total := i.PartitionedTotal()
	i.Share = SplitShare(total, alpha)
	j.Share = total - i.Share
	return i, j
}

// PhaseWork is what one accelerator does in one training phase of one
// layer: its scalar arithmetic (MULT and ADD), and its local (LOAD and
// STORE) and network (RLOAD) traffic in bytes.
type PhaseWork struct {
	FLOPs, LocalBytes, RemoteBytes float64
}

// Work is the work table of one assignment, indexed by cost.Phase: each
// phase's PhaseWork summed over the records Generate emits, in record
// order, so every entry equals the same sum over Generate's trace bit for
// bit. It prices a trace without materializing it.
type Work [cost.PhaseGradient + 1]PhaseWork

// WorkOf returns the work table of the assignment.
func WorkOf(a Assignment) (Work, error) {
	var w Work
	if err := a.Validate(); err != nil {
		return w, err
	}
	emit(a, func(phase cost.Phase, op Op, _ string, count, granule int64) {
		pw := &w[phase]
		switch op {
		case OpMult, OpAdd:
			pw.FLOPs += float64(count * granule)
		case OpLoad, OpStore:
			pw.LocalBytes += float64(count*granule) * tensor.BytesPerElement
		case OpRemoteLoad:
			pw.RemoteBytes += float64(count*granule) * tensor.BytesPerElement
		}
	})
	return w, nil
}

// WorkPair returns the work tables of both accelerators of a
// bi-partition, side i owning SplitShare(total, alpha).
func WorkPair(d tensor.LayerDims, t cost.Type, alpha float64) (i, j Work, err error) {
	si, sj := pairOf(d, t, alpha)
	if i, err = WorkOf(si); err != nil {
		return Work{}, Work{}, err
	}
	if j, err = WorkOf(sj); err != nil {
		return Work{}, Work{}, err
	}
	return i, j, nil
}
