// Package arraysim simulates a complete hierarchical plan at array scale:
// every leaf group of the plan becomes a machine with compute and HBM
// resources, every hierarchy node becomes a link whose bandwidth is the
// bisection between its two child groups, and one training iteration is
// scheduled as a task graph of per-leaf layer phases plus per-node
// partial-sum and conversion transfers.
//
// Where internal/sim validates the cost tables at the two-group
// granularity, arraysim cross-checks the *hierarchical composition*: the
// analytic Plan.Time() model assumes each level's communication simply
// adds to the slower child's subtree time, while the event-driven schedule
// lets independent levels and layers overlap. The simulated makespan is
// therefore a lower bound refinement of the analytic estimate, and their
// ratio measures how much pipelining the analytic model leaves out.
package arraysim

import (
	"fmt"
	"math"

	"accpar/internal/core"
	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/tensor"
)

// Config tunes the array simulation.
type Config struct {
	// OverlapComm lets transfers proceed concurrently with compute on the
	// machines they involve. When false, a machine's transfers serialize
	// with its compute, matching the analytic assumption.
	OverlapComm bool
	// Topology sets link bisection bandwidths (default FullBisection,
	// matching the analytic model).
	Topology hardware.Topology
	// MaxLeaves caps the simulated array size (task count grows linearly
	// with leaves). Default 512.
	MaxLeaves int
}

func (c Config) withDefaults() Config {
	if c.MaxLeaves == 0 {
		c.MaxLeaves = 512
	}
	return c
}

// Result is the outcome of one simulated iteration.
type Result struct {
	// Time is the makespan in seconds.
	Time float64
	// AnalyticTime is the plan's own estimate, for comparison.
	AnalyticTime float64
	// Leaves and Links count the simulated resources.
	Leaves, Links int
	// Tasks is the number of scheduled tasks.
	Tasks int
	// ComputeBusyMax is the busiest leaf's compute time.
	ComputeBusyMax float64
	// LinkBusyMax is the busiest link's transfer time.
	LinkBusyMax float64
}

// task is one schedulable item.
type task struct {
	deps []*task
	// machine >= 0 schedules on a leaf's compute resource; link >= 0 on a
	// hierarchy link.
	machine  int
	link     int
	duration float64
	done     float64
	sched    bool
}

// taskArena hands out tasks from chunked slabs: task pointers stay stable
// while the whole graph costs a few slab allocations instead of one per
// task.
type taskArena struct {
	chunks [][]task
	used   int
}

func (a *taskArena) alloc() *task {
	if len(a.chunks) == 0 || a.used == len(a.chunks[len(a.chunks)-1]) {
		size := 512
		if k := len(a.chunks); k > 0 && len(a.chunks[k-1]) > size/2 {
			size = 2 * len(a.chunks[k-1])
		}
		a.chunks = append(a.chunks, make([]task, size))
		a.used = 0
	}
	t := &a.chunks[len(a.chunks)-1][a.used]
	a.used++
	return t
}

// builder assembles the array-level task graph from a plan and the
// hardware tree it was computed for.
type builder struct {
	cfg   Config
	units []dnn.WeightedLayer
	edges [][2]int
	in    [][]int
	out   [][]int

	arena taskArena
	tasks []*task

	// leaf resources.
	leafCompute []float64 // FLOPS
	leafMem     []float64
	// link resources.
	linkBW []float64

	leaves []leafPlan
	links  []linkInfo

	// per-leaf phase completion tasks, indexed [leaf][unit].
	fwd  [][]*task
	bwd  [][]*task
	grad [][]*task
}

// leafPlan pairs a plan leaf's effective per-unit dims with its hardware
// group.
type leafPlan struct {
	dims []tensor.LayerDims
	hw   *hardware.Tree
}

// linkInfo pairs a split node with its hardware node, its effective
// per-unit dims and the span of leaves (indices into builder.leaves)
// under it. Dims and span are positional: plan nodes are shared between
// parents and store neither, so one *PlanNode may stand at several links.
type linkInfo struct {
	node   *core.PlanNode
	hw     *hardware.Tree
	dims   []tensor.LayerDims
	leaves [2]int
}

// Simulate runs one iteration of the plan over the hardware tree it was
// partitioned for. The plan and tree must have identical shapes (both come
// from the same hardware.BuildTree call).
func Simulate(plan *core.Plan, tree *hardware.Tree, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	b := &builder{cfg: cfg, units: plan.Network.Units(), edges: plan.Network.Edges()}
	b.in, b.out = make([][]int, len(b.units)), make([][]int, len(b.units))
	for _, e := range b.edges {
		b.in[e[1]] = append(b.in[e[1]], e[0])
		b.out[e[0]] = append(b.out[e[0]], e[1])
	}

	// Collect leaves and links by walking plan and hardware trees in step,
	// deriving each node's effective dims from its parent's as the search
	// did. A node-level exchange for unit u depends on that phase's tasks
	// on every leaf under the node, and gates the dependents on those
	// leaves, so each link records its leaf span.
	var walk func(p *core.PlanNode, h *hardware.Tree, dims []tensor.LayerDims) error
	walk = func(p *core.PlanNode, h *hardware.Tree, dims []tensor.LayerDims) error {
		if p.IsLeaf() != h.IsLeaf() {
			return fmt.Errorf("arraysim: plan and hardware trees have different shapes at level %d", h.Level)
		}
		if p.IsLeaf() {
			b.leaves = append(b.leaves, leafPlan{dims: dims, hw: h})
			return nil
		}
		li, start := len(b.links), len(b.leaves)
		b.links = append(b.links, linkInfo{node: p, hw: h, dims: dims})
		if err := walk(p.Left, h.Left, core.ScaleUnitDims(b.units, dims, p.Types, p.Alpha)); err != nil {
			return err
		}
		if err := walk(p.Right, h.Right, core.ScaleUnitDims(b.units, dims, p.Types, 1-p.Alpha)); err != nil {
			return err
		}
		b.links[li].leaves = [2]int{start, len(b.leaves)}
		return nil
	}
	rootDims := make([]tensor.LayerDims, len(b.units))
	for i, u := range b.units {
		rootDims[i] = u.Dims
	}
	if err := walk(plan.Root, tree, rootDims); err != nil {
		return nil, err
	}
	if len(b.leaves) > cfg.MaxLeaves {
		return nil, fmt.Errorf("arraysim: %d leaves exceed the cap %d", len(b.leaves), cfg.MaxLeaves)
	}

	for _, lf := range b.leaves {
		b.leafCompute = append(b.leafCompute, lf.hw.Group.ComputeDensity())
		b.leafMem = append(b.leafMem, lf.hw.Group.MemBandwidth())
	}
	for _, lk := range b.links {
		bi := cfg.Topology.BisectionBandwidth(lk.hw.Left.Group)
		bj := cfg.Topology.BisectionBandwidth(lk.hw.Right.Group)
		b.linkBW = append(b.linkBW, math.Min(bi, bj))
	}

	n := len(b.units)
	nl := len(b.leaves)
	b.fwd = make([][]*task, nl)
	b.bwd = make([][]*task, nl)
	b.grad = make([][]*task, nl)
	for i := range b.fwd {
		b.fwd[i] = make([]*task, n)
		b.bwd[i] = make([]*task, n)
		b.grad[i] = make([]*task, n)
	}

	// Forward sweep.
	for u := 0; u < n; u++ {
		b.phase(cost.PhaseForward, u)
	}
	// Backward sweep.
	for u := n - 1; u >= 0; u-- {
		b.phase(cost.PhaseBackward, u)
	}
	// Gradient phase.
	for u := 0; u < n; u++ {
		b.phase(cost.PhaseGradient, u)
	}

	res := &Result{
		AnalyticTime: plan.Time(),
		Leaves:       nl,
		Links:        len(b.links),
		Tasks:        len(b.tasks),
	}
	if err := b.schedule(res); err != nil {
		return nil, err
	}
	return res, nil
}
