package arraysim

import (
	"fmt"
	"math"

	"accpar/internal/cost"
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

// phaseBytes returns the local memory traffic of one phase: operands
// streamed in, result streamed out.
func phaseBytes(ph cost.Phase, d tensor.LayerDims) float64 {
	var elems int64
	switch ph {
	case cost.PhaseForward:
		elems = d.AF() + d.AW() + d.AFNext()
	case cost.PhaseBackward:
		elems = d.AFNext() + d.AW() + d.AF()
	case cost.PhaseGradient:
		elems = d.AF() + d.AFNext() + d.AW()
	}
	return float64(elems) * tensor.BytesPerElement
}

// phaseDone returns the per-leaf completion slot of a phase.
func (b *builder) phaseDone(ph cost.Phase) [][]*task {
	switch ph {
	case cost.PhaseForward:
		return b.fwd
	case cost.PhaseBackward:
		return b.bwd
	default:
		return b.grad
	}
}

// newTask allocates a task from the arena and appends it to the schedule
// order.
func (b *builder) newTask(t task) *task {
	p := b.arena.alloc()
	*p = t
	b.tasks = append(b.tasks, p)
	return p
}

// join creates a zero-duration synchronization task.
func (b *builder) join(deps []*task) *task {
	return b.newTask(task{machine: -1, link: -1, deps: deps})
}

// phase builds all tasks of one (phase, unit): per-leaf compute, per-link
// partial-sum exchanges when the unit's type at that link incurs them in
// this phase, and per-link boundary conversions for the phase's tensor
// movement direction.
func (b *builder) phase(ph cost.Phase, u int) {
	unit := b.units[u]
	done := b.phaseDone(ph)

	// Per-leaf dependencies on earlier phases/units.
	depsFor := func(leaf int) []*task {
		var deps []*task
		switch ph {
		case cost.PhaseForward:
			for _, p := range b.in[u] {
				deps = append(deps, b.fwd[leaf][p])
			}
		case cost.PhaseBackward:
			outs := b.out[u]
			if len(outs) == 0 {
				deps = append(deps, b.fwd[leaf][u])
			}
			for _, c := range outs {
				deps = append(deps, b.bwd[leaf][c])
			}
		case cost.PhaseGradient:
			deps = append(deps, b.fwd[leaf][u], b.bwd[leaf][u])
		}
		return deps
	}

	// Conversion transfers: in the forward phase the F tensor moves on
	// incoming edges; in the backward phase the E tensor moves on outgoing
	// edges. One transfer task per (link, edge) with non-zero conversion,
	// shared by — and gating — every leaf under the link.
	nl := len(b.leaves)
	convByLeaf := make([][]*task, nl)
	addForLink := func(li int, bytes float64) {
		if bytes <= 0 {
			return
		}
		lk := b.links[li]
		r := lk.leaves
		var deps []*task
		for i := r[0]; i < r[1]; i++ {
			deps = append(deps, depsFor(i)...)
		}
		x := b.newTask(task{
			link: li, machine: -1, duration: bytes / b.linkBW[li],
			deps: compact(deps),
		})
		for i := r[0]; i < r[1]; i++ {
			convByLeaf[i] = append(convByLeaf[i], x)
		}
	}
	switch ph {
	case cost.PhaseForward:
		for _, p := range b.in[u] {
			for li, lk := range b.links {
				tt, t := lk.node.Types[p], lk.node.Types[u]
				boundary := boundaryAt(lk.dims, p, u)
				fb, _ := interSplit(tt, t, boundary, lk.node.Alpha)
				addForLink(li, fb)
			}
		}
	case cost.PhaseBackward:
		for _, c := range b.out[u] {
			for li, lk := range b.links {
				tt, t := lk.node.Types[u], lk.node.Types[c]
				boundary := boundaryAt(lk.dims, u, c)
				_, eb := interSplit(tt, t, boundary, lk.node.Alpha)
				addForLink(li, eb)
			}
		}
	}

	computeTasks := make([]*task, nl)
	for leaf := 0; leaf < nl; leaf++ {
		deps := append(depsFor(leaf), convByLeaf[leaf]...)
		var dur float64
		if !unit.Virtual {
			d := b.leaves[leaf].dims[u]
			dur = math.Max(phaseFLOPs(ph, d)/b.leafCompute[leaf], phaseBytes(ph, d)/b.leafMem[leaf])
		}
		computeTasks[leaf] = b.newTask(task{
			machine: leaf, link: -1, duration: dur, deps: compact(deps),
		})
	}

	// Partial-sum exchanges: at every link whose chosen type for this unit
	// incurs its psum in this phase, an exchange over the link's effective
	// dims gates completion for all leaves under the link.
	psums := make([][]*task, nl) // leaf -> exchange tasks gating it
	if !unit.Virtual {
		for li, lk := range b.links {
			t := lk.node.Types[u]
			if t.PsumPhase() != ph {
				continue
			}
			bytes := float64(cost.IntraCommElements(t, lk.dims[u])) * tensor.BytesPerElement
			r := lk.leaves
			var deps []*task
			for i := r[0]; i < r[1]; i++ {
				deps = append(deps, computeTasks[i])
			}
			x := b.newTask(task{link: li, machine: -1, duration: bytes / b.linkBW[li], deps: deps})
			for i := r[0]; i < r[1]; i++ {
				psums[i] = append(psums[i], x)
			}
		}
	}

	for leaf := 0; leaf < nl; leaf++ {
		if gates := psums[leaf]; len(gates) > 0 {
			done[leaf][u] = b.join(append([]*task{computeTasks[leaf]}, gates...))
		} else {
			done[leaf][u] = computeTasks[leaf]
		}
	}
}

// boundaryAt returns the effective boundary tensor size on the edge p→u at
// a plan node with the given dims: the smaller of the producer's output
// and consumer's input.
func boundaryAt(dims []tensor.LayerDims, p, u int) int64 {
	out := dims[p].AFNext()
	in := dims[u].AF()
	if out < in {
		return out
	}
	return in
}

// interSplit returns the combined two-direction conversion bytes over a
// link: the forward (F) and backward (E) components summed across both
// sides' accesses.
func interSplit(tt, t cost.Type, boundary int64, alpha float64) (fwd, bwd float64) {
	beta := 1 - alpha
	fi, ei := cost.InterCommSplit(tt, t, boundary, alpha, beta)
	fj, ej := cost.InterCommSplit(tt, t, boundary, beta, alpha)
	return (fi + fj) * tensor.BytesPerElement, (ei + ej) * tensor.BytesPerElement
}

// compact removes nils and duplicates in place. Dependency lists are a
// handful of entries, so the quadratic scan beats a map allocation.
func compact(ts []*task) []*task {
	out := ts[:0]
	for _, t := range ts {
		if t == nil {
			continue
		}
		dup := false
		for _, o := range out {
			if o == t {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, t)
		}
	}
	return out
}

// schedule performs list scheduling over leaves and links.
func (b *builder) schedule(res *Result) error {
	machineFree := make([]float64, len(b.leaves))
	linkFree := make([]float64, len(b.links))
	machineBusy := make([]float64, len(b.leaves))
	linkBusy := make([]float64, len(b.links))

	for _, t := range b.tasks {
		start := 0.0
		for _, d := range t.deps {
			if !d.sched {
				return fmt.Errorf("arraysim: dependency scheduled out of order")
			}
			if d.done > start {
				start = d.done
			}
		}
		switch {
		case t.machine >= 0:
			if machineFree[t.machine] > start {
				start = machineFree[t.machine]
			}
			t.done = start + t.duration
			machineFree[t.machine] = t.done
			machineBusy[t.machine] += t.duration
		case t.link >= 0:
			if linkFree[t.link] > start {
				start = linkFree[t.link]
			}
			if !b.cfg.OverlapComm {
				// Serialize with the leaves under the link.
				r := b.links[t.link].leaves
				for i := r[0]; i < r[1]; i++ {
					if machineFree[i] > start {
						start = machineFree[i]
					}
				}
				t.done = start + t.duration
				for i := r[0]; i < r[1]; i++ {
					machineFree[i] = t.done
				}
			} else {
				t.done = start + t.duration
			}
			linkFree[t.link] = t.done
			linkBusy[t.link] += t.duration
		default:
			t.done = start
		}
		t.sched = true
		if t.done > res.Time {
			res.Time = t.done
		}
	}
	for _, v := range machineBusy {
		if v > res.ComputeBusyMax {
			res.ComputeBusyMax = v
		}
	}
	for _, v := range linkBusy {
		if v > res.LinkBusyMax {
			res.LinkBusyMax = v
		}
	}
	return nil
}
