package arraysim

import (
	"math"

	"accpar/internal/cost"
	"accpar/internal/des"
	"accpar/internal/tensor"
)

// phaseFLOPs returns the arithmetic of one phase over effective dims.
func phaseFLOPs(ph cost.Phase, d tensor.LayerDims) float64 {
	switch ph {
	case cost.PhaseForward:
		return float64(tensor.ForwardFLOPs(d))
	case cost.PhaseBackward:
		return float64(tensor.BackwardFLOPs(d))
	case cost.PhaseGradient:
		return float64(tensor.GradientFLOPs(d))
	default:
		panic("arraysim: bad phase")
	}
}

// appendDeps appends a leaf's dependencies of (phase, unit) on earlier
// phases and units.
func (b *builder) appendDeps(deps []int, ph cost.Phase, u, leaf int) []int {
	switch ph {
	case cost.PhaseForward:
		for _, p := range b.in[u] {
			deps = append(deps, b.fwd[leaf][p])
		}
	case cost.PhaseBackward:
		if len(b.out[u]) == 0 {
			deps = append(deps, b.fwd[leaf][u])
		}
		for _, c := range b.out[u] {
			deps = append(deps, b.bwd[leaf][c])
		}
	case cost.PhaseGradient:
		deps = append(deps, b.fwd[leaf][u], b.bwd[leaf][u])
	}
	return deps
}

// transfer adds a transfer of the given bytes over link li. Without
// overlap it also holds every leaf under the link.
func (b *builder) transfer(li int, bytes float64, deps []int) int {
	t := des.Task{On: len(b.leaves) + li, Dur: bytes / b.linkBW[li]}
	if !b.cfg.OverlapComm {
		t.Hold = b.links[li].leaves
	}
	return b.sched.Add(t, deps...)
}

// phase builds all tasks of one (phase, unit): per-leaf compute, per-link
// partial-sum exchanges when the unit's type at that link incurs them in
// this phase, and per-link boundary conversions for the phase's tensor
// movement direction.
func (b *builder) phase(ph cost.Phase, u int) {
	unit := b.units[u]
	nl := len(b.leaves)
	for i := 0; i < nl; i++ {
		b.convByLeaf[i] = b.convByLeaf[i][:0]
		b.psums[i] = b.psums[i][:0]
	}

	// Conversion transfers: in the forward phase the F tensor moves on
	// incoming edges; in the backward phase the E tensor moves on outgoing
	// edges. One transfer task per (link, edge) with non-zero conversion,
	// shared by — and gating — every leaf under the link.
	addForLink := func(li int, bytes float64) {
		if bytes <= 0 {
			return
		}
		r := b.links[li].leaves
		deps := b.deps[:0]
		for i := r[0]; i < r[1]; i++ {
			deps = b.appendDeps(deps, ph, u, i)
		}
		b.deps = deps
		x := b.transfer(li, bytes, deps)
		for i := r[0]; i < r[1]; i++ {
			b.convByLeaf[i] = append(b.convByLeaf[i], x)
		}
	}
	switch ph {
	case cost.PhaseForward:
		for _, p := range b.in[u] {
			for li := range b.links {
				fb, _ := b.convBytes(li, p, u)
				addForLink(li, fb)
			}
		}
	case cost.PhaseBackward:
		for _, c := range b.out[u] {
			for li := range b.links {
				_, eb := b.convBytes(li, u, c)
				addForLink(li, eb)
			}
		}
	}

	first := b.sched.Len() // leaf i's compute task is first+i
	for leaf := 0; leaf < nl; leaf++ {
		b.deps = append(b.appendDeps(b.deps[:0], ph, u, leaf), b.convByLeaf[leaf]...)
		var dur float64
		if !unit.Virtual {
			d := b.leaves[leaf].dims[u]
			dur = math.Max(phaseFLOPs(ph, d)/b.leafCompute[leaf], cost.PhaseStreamBytes(d)/b.leafMem[leaf])
		}
		b.sched.Add(des.Task{On: leaf, Dur: dur}, b.deps...)
	}

	// Partial-sum exchanges: at every link whose chosen type for this unit
	// incurs its psum in this phase, an exchange over the link's effective
	// dims gates completion for all leaves under the link.
	if !unit.Virtual {
		for li, lk := range b.links {
			t := lk.node.Types[u]
			if t.PsumPhase() != ph {
				continue
			}
			bytes := float64(cost.IntraCommElements(t, lk.dims[u])) * tensor.BytesPerElement
			r := lk.leaves
			b.deps = b.deps[:0]
			for i := r[0]; i < r[1]; i++ {
				b.deps = append(b.deps, first+i)
			}
			x := b.transfer(li, bytes, b.deps)
			for i := r[0]; i < r[1]; i++ {
				b.psums[i] = append(b.psums[i], x)
			}
		}
	}

	for leaf := 0; leaf < nl; leaf++ {
		last := first + leaf
		if gates := b.psums[leaf]; len(gates) > 0 {
			// A join: the leaf's phase ends with its last exchange.
			last = b.sched.Add(des.Task{On: des.None}, append(gates, last)...)
		}
		switch ph {
		case cost.PhaseForward:
			b.fwd[leaf][u] = last
		case cost.PhaseBackward:
			b.bwd[leaf][u] = last
		}
	}
}

// convBytes returns the combined two-direction conversion bytes over link
// li on the edge p→u: the forward (F) and backward (E) components summed
// across both sides' accesses.
func (b *builder) convBytes(li, p, u int) (fwd, bwd float64) {
	lk := b.links[li]
	tt, t := lk.node.Types[p], lk.node.Types[u]
	boundary := cost.EdgeBoundary(lk.dims[p], lk.dims[u])
	alpha, beta := lk.node.Alpha, 1-lk.node.Alpha
	fi, ei := cost.InterCommSplit(tt, t, boundary, alpha, beta)
	fj, ej := cost.InterCommSplit(tt, t, boundary, beta, alpha)
	return (fi + fj) * tensor.BytesPerElement, (ei + ej) * tensor.BytesPerElement
}
