// Package arraysim simulates a complete hierarchical plan at array scale:
// every leaf group of the plan becomes a machine with compute and HBM
// resources, every hierarchy node becomes a link whose bandwidth is the
// bisection between its two child groups, and one training iteration is
// scheduled as a task graph of per-leaf layer phases plus per-node
// partial-sum and conversion transfers. It is a graph builder over
// internal/des: the schedule's resources are the leaves, then the links.
//
// Where internal/sim validates the cost tables at the two-group
// granularity, arraysim cross-checks the *hierarchical composition*: the
// analytic Plan.Time() model adds each level's communication to the
// slower child's subtree time, while the event-driven schedule lets
// independent levels and layers overlap but serializes a link's transfers
// with every leaf under it unless Config.OverlapComm is set. Neither
// bounds the other: over the AccPar plans of the ten golden models at batch
// 512, the makespan measured 1.04–1.60× Plan.Time() with overlap off and
// 0.41–0.93× with it on (8+8 and 32+96 TPU-v2/v3 fleets).
package arraysim

import (
	"fmt"
	"math"

	"accpar/internal/core"
	"accpar/internal/cost"
	"accpar/internal/des"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/tensor"
)

// Config tunes the array simulation.
type Config struct {
	// OverlapComm lets transfers proceed concurrently with compute on the
	// machines they involve. When false, a link's transfers serialize
	// with the compute of every leaf under it; that schedule measured
	// longer than the analytic Plan.Time() on every golden model (see the
	// package comment).
	OverlapComm bool
	// Topology sets link bisection bandwidths (default FullBisection,
	// matching the analytic model).
	Topology hardware.Topology
}

// maxLeaves caps the simulated array size: task count grows linearly
// with leaves.
const maxLeaves = 512

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

// builder assembles the array-level task graph from a plan and the
// hardware tree it was computed for, and schedules it as it goes.
type builder struct {
	cfg   Config
	units []dnn.WeightedLayer
	edges [][2]int
	in    [][]int
	out   [][]int

	sched des.Graph
	// deps is a scratch dependency list; convByLeaf[leaf] and
	// psums[leaf] are the current phase's transfers gating a leaf.
	deps       []int
	convByLeaf [][]int
	psums      [][]int

	// leaf resources.
	leafCompute []float64 // FLOPS
	leafMem     []float64
	// link resources.
	linkBW []float64

	leaves []leafPlan
	links  []linkInfo

	// per-leaf forward and backward completion tasks, indexed
	// [leaf][unit]; nothing depends on a gradient phase.
	fwd [][]int
	bwd [][]int
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
	if countLeaves(tree, maxLeaves+1) > maxLeaves {
		return nil, fmt.Errorf("arraysim: the tree exceeds the %d-leaf cap", maxLeaves)
	}
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
	b.sched.Reset(nl + len(b.links))
	b.convByLeaf, b.psums = make([][]int, nl), make([][]int, nl)
	b.fwd, b.bwd = make([][]int, nl), make([][]int, nl)
	for i := range b.fwd {
		b.fwd[i], b.bwd[i] = make([]int, n), make([]int, n)
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

	if err := b.sched.Err(); err != nil {
		return nil, err
	}
	res := &Result{
		Time:         b.sched.Makespan(),
		AnalyticTime: plan.Time(),
		Leaves:       nl,
		Links:        len(b.links),
		Tasks:        b.sched.Len(),
	}
	for leaf := 0; leaf < nl; leaf++ {
		res.ComputeBusyMax = max(res.ComputeBusyMax, b.sched.Busy(leaf))
	}
	for li := range b.links {
		res.LinkBusyMax = max(res.LinkBusyMax, b.sched.Busy(nl+li))
	}
	return res, nil
}

// countLeaves counts the tree's leaves, stopping once the count exceeds
// limit, so an oversized tree is refused in O(limit).
func countLeaves(h *hardware.Tree, limit int) int {
	if h.IsLeaf() {
		return 1
	}
	n := countLeaves(h.Left, limit)
	if n > limit {
		return n
	}
	return n + countLeaves(h.Right, limit-n)
}
