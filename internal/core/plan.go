package core

import (
	"fmt"
	"math"
	"strings"

	"accpar/internal/cost"
	"accpar/internal/dnn"
)

// PlanNode is the partitioning decision at one node of the hardware
// hierarchy. Non-leaf nodes carry the type assignment and ratio of the
// bi-partition between their two child groups; leaf nodes carry the
// modelled execution time of a single accelerator on its final shard.
//
// A PlanNode is read-only once built. The planner links a solved subtree
// wherever its subproblem recurs — into both children of a symmetric
// split, into later plans served from a memo or SharedCache, at any
// depth — so one node may sit under several parents and in several plans
// at once. Consumers must not write to a node, and must not tell
// positions apart by node pointer.
//
// A node is position-free: it stores neither its depth nor the effective
// per-unit dims it was solved at, both of which depend on where it hangs.
// A reader walking from the plan root derives them: the root is level 1
// and sees the units' own dims, and a child is one level deeper and sees
// ScaleUnitDims of its parent's dims by the parent's Types and Alpha (the
// left child) or 1 - Alpha (the right child).
type PlanNode struct {
	// GroupDesc describes the accelerator group this node covers.
	GroupDesc string
	// Alpha is the partitioning ratio given to the left child
	// (non-leaf nodes).
	Alpha float64
	// Types is the per-unit type assignment at this split, indexed like
	// Network.Units() (non-leaf nodes).
	Types []cost.Type
	// Eval is the cost breakdown of this split at the chosen ratio.
	Eval LevelEval
	// SideI and SideJ are the two child groups' cost-model resources at
	// this split (non-leaf nodes), retained for plan explanation.
	SideI, SideJ Side
	// Left and Right are the child plans (nil on leaves).
	Left, Right *PlanNode
	// LeafComputeTime is the computation time of the leaf accelerator on
	// its shard, in seconds (leaf nodes).
	LeafComputeTime float64
	// LeafMemTime is the HBM access time of the leaf accelerator for one
	// iteration, in seconds (leaf nodes).
	LeafMemTime float64
	// LeafCommTime is the implicit data-parallel synchronization cost inside
	// an unsplit multi-accelerator leaf group (zero for singleton leaves).
	LeafCommTime float64
	// LeafResidencyBytes estimates the leaf group's resident memory:
	// kernel shards and their gradients, retained activations and errors,
	// and optimizer state (leaf nodes).
	LeafResidencyBytes int64
	// LeafHBMBytes is the leaf group's aggregate memory capacity.
	LeafHBMBytes int64
}

// IsLeaf reports whether the node is a leaf.
func (n *PlanNode) IsLeaf() bool { return n.Left == nil }

// Time returns the modelled per-iteration execution time of the subtree:
// communication at this split plus the slower child's subtree time; leaves
// contribute compute + memory time. This realizes the hierarchical timing
// model: communication occurs at every split, computation once at the
// leaves.
func (n *PlanNode) Time() float64 {
	if n.IsLeaf() {
		return n.LeafComputeTime + n.LeafMemTime + n.LeafCommTime
	}
	t := n.Left.Time()
	if n.Right != n.Left { // a shared child is timed once: max(x, x) = x
		t = math.Max(t, n.Right.Time())
	}
	return n.Eval.CommTime + t
}

// CommBytes returns the total bytes communicated across all splits of the
// subtree.
func (n *PlanNode) CommBytes() float64 {
	if n.IsLeaf() {
		return 0
	}
	l := n.Left.CommBytes()
	r := l // a shared child is walked once and counted at both positions
	if n.Right != n.Left {
		r = n.Right.CommBytes()
	}
	return n.Eval.CommBytes + l + r
}

// Plan is a complete hierarchical partitioning of a network onto an
// accelerator array.
type Plan struct {
	// Network is the partitioned network.
	Network *dnn.Network
	// Strategy describes the options that produced the plan.
	Strategy string
	// Root is the top of the decision tree.
	Root *PlanNode

	// audit is the recorder of the search that produced the plan
	// (Options.Audit), surfaced via SearchAudit. Unexported so plan JSON
	// stays byte-identical with and without auditing.
	audit *AuditRecorder
	// opt is the option set the plan was searched with (defaults applied),
	// so Explain prices alternatives under the plan's own objective and
	// mode. Zero for plans not built by a search.
	opt Options
}

// Time returns the modelled per-iteration execution time in seconds.
func (p *Plan) Time() float64 { return p.Root.Time() }

// Throughput returns training throughput in samples per second.
func (p *Plan) Throughput() float64 {
	return float64(p.Network.Batch) / p.Time()
}

// CommBytes returns total communicated bytes per iteration.
func (p *Plan) CommBytes() float64 { return p.Root.CommBytes() }

// Levels returns the plan nodes along the leftmost spine, one per hierarchy
// level with a split decision — the view Figure 7 of the paper presents
// (homogeneous lower levels are symmetric between siblings, so the leftmost
// spine is representative). Levels()[i] is the split at level i+1.
func (p *Plan) Levels() []*PlanNode {
	return p.Spine(false)
}

// Spine returns the plan nodes along one spine of the decision tree: the
// leftmost (first child at every split) or, with right=true, the rightmost.
// On the paper's heterogeneous array the left spine descends into the
// TPU-v2 group and the right spine into the TPU-v3 group, so the two can
// legitimately choose different types below the top split.
func (p *Plan) Spine(right bool) []*PlanNode {
	var out []*PlanNode
	for n := p.Root; n != nil && !n.IsLeaf(); {
		out = append(out, n)
		if right {
			n = n.Right
		} else {
			n = n.Left
		}
	}
	return out
}

// TypesAtLevel returns the per-unit types decided at the given hierarchy
// level (1-based) along the leftmost spine.
func (p *Plan) TypesAtLevel(level int) ([]cost.Type, error) {
	if spine := p.Levels(); level >= 1 && level <= len(spine) {
		return spine[level-1].Types, nil
	}
	return nil, fmt.Errorf("core: no split at level %d", level)
}

// TypeMap renders the Figure 7 style map: one row per hierarchy level, one
// column per real weighted layer (virtual junctions omitted).
func (p *Plan) TypeMap() string {
	units := p.Network.Units()
	var b strings.Builder
	// Header row with layer names.
	fmt.Fprintf(&b, "%-8s", "level")
	for _, u := range units {
		if u.Virtual {
			continue
		}
		fmt.Fprintf(&b, "%-6s", u.Name)
	}
	b.WriteString("\n")
	for i, n := range p.Levels() {
		fmt.Fprintf(&b, "%-8d", i+1)
		for i, u := range units {
			if u.Virtual {
				continue
			}
			fmt.Fprintf(&b, "%-6s", n.Types[i].Short())
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TypeHistogram counts how many (level, weighted layer) decisions used each
// type across the whole plan tree.
func (p *Plan) TypeHistogram() map[cost.Type]int {
	h := map[cost.Type]int{}
	units := p.Network.Units()
	var walk func(n *PlanNode)
	walk = func(n *PlanNode) {
		if n == nil || n.IsLeaf() {
			return
		}
		for i, t := range n.Types {
			if !units[i].Virtual {
				h[t]++
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(p.Root)
	return h
}

// Validate checks structural consistency of the plan tree, reporting the
// first defect as an *InvalidPlanError.
func (p *Plan) Validate() error {
	return validateTree(p.Root, 1, p.Network.NumUnits())
}

// InvalidPlanError reports a plan node no search could have produced: a
// structural defect Plan.Validate rejects.
type InvalidPlanError struct {
	// Level is the hierarchy level of the offending node (0 when the node
	// itself is missing).
	Level int
	// Detail describes the defect.
	Detail string
}

func (e *InvalidPlanError) Error() string {
	if e.Level > 0 {
		return fmt.Sprintf("core: invalid plan node at level %d: %s", e.Level, e.Detail)
	}
	return fmt.Sprintf("core: invalid plan node: %s", e.Detail)
}

// invalidNode reports a defect of the node at the given level as an
// *InvalidPlanError.
func invalidNode(level int, format string, args ...any) error {
	return &InvalidPlanError{Level: level, Detail: fmt.Sprintf(format, args...)}
}

// validateTree checks the structural invariants of a plan subtree at
// level over nUnits units: no nil children or half-leaves, non-negative
// leaf times, and one type per unit and an in-range ratio at every split.
func validateTree(n *PlanNode, level, nUnits int) error {
	if n == nil {
		return &InvalidPlanError{Detail: "nil plan node"}
	}
	if n.IsLeaf() {
		if n.Right != nil {
			return invalidNode(level, "half-leaf node")
		}
		if n.LeafComputeTime < 0 || n.LeafMemTime < 0 {
			return invalidNode(level, "negative leaf time")
		}
		return nil
	}
	if len(n.Types) != nUnits {
		return invalidNode(level, "%d types, want %d", len(n.Types), nUnits)
	}
	if n.Alpha < cost.MinRatio || n.Alpha > 1-cost.MinRatio {
		return invalidNode(level, "alpha %g out of range", n.Alpha)
	}
	if err := validateTree(n.Left, level+1, nUnits); err != nil || n.Right == n.Left {
		return err // a shared child is valid at both positions or at neither
	}
	return validateTree(n.Right, level+1, nUnits)
}
