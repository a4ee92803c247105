package core

import (
	"errors"
	"fmt"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
)

// This file promotes the per-leaf residency accounting from report
// (Plan.Memory) to search constraint (Options.MemoryLimit). The
// constrained search keeps the DP exact and layers feasibility on top:
//
//   - Every split solves the exact unconstrained subproblem first. If the
//     resulting subtree fits, it is returned unchanged — so plans are
//     byte-identical to the unconstrained planner whenever the constraint
//     is inactive or non-binding, inductively over the whole hierarchy.
//   - Before retrying, two admissible capacity floors prune provably
//     infeasible subtrees inside the recursion: the workload's aggregate
//     residency against the subtree's aggregate HBM (valid for any ratio
//     mode, because the children of a split together hold at least their
//     parent's residency: see residencyAtDims), and under equal ratios
//     the sharper per-leaf depth floor (every child inherits at least
//     half its parent's residency).
//   - Otherwise a deterministic candidate ladder escalates: λ-penalized
//     DP re-solves (the penalty steers decisions toward types that shard
//     the resident tensors; reported costs never include it), a
//     capacity-proportional ratio under flexible ratios, and — for small
//     unit counts — a full enumeration of type vectors. The first fitting
//     candidate wins (mildest distortion first); if none fits, the
//     attempt with the smallest peak overflow is kept as the best effort.
//
// MemoryReject converts residual overflow at the plan root into a typed
// *NoFeasiblePlanError carrying the tightest leaf; MemoryPenalize returns
// the best-effort plan.

// ErrNoFeasiblePlan is the sentinel all *NoFeasiblePlanError values match
// via errors.Is, so callers can branch on infeasibility without keeping
// the diagnostic fields.
var ErrNoFeasiblePlan = errors.New("core: no feasible plan fits the accelerator memory capacities")

// NoFeasiblePlanError reports a MemoryReject search whose best attempt
// still overflows some leaf, carrying the tightest leaf as the
// diagnostic: the group whose residency-to-capacity ratio is worst.
type NoFeasiblePlanError struct {
	// TightestGroup describes the leaf group with the worst
	// residency-to-capacity ratio in the best attempt.
	TightestGroup string
	// ResidencyBytes is that leaf's resident footprint.
	ResidencyBytes int64
	// CapacityBytes is that leaf's aggregate HBM capacity.
	CapacityBytes int64
}

func (e *NoFeasiblePlanError) Error() string {
	return fmt.Sprintf("core: no feasible plan: tightest leaf %s needs %d bytes of %d available",
		e.TightestGroup, e.ResidencyBytes, e.CapacityBytes)
}

// Is matches the package sentinel, so errors.Is(err, ErrNoFeasiblePlan)
// holds for every NoFeasiblePlanError.
func (e *NoFeasiblePlanError) Unwrap() error { return ErrNoFeasiblePlan }

// residencyAtDims mirrors leafNode's resident-footprint accounting at the
// given effective extents: kernel shards and their gradients, retained
// activations and one error tensor per layer, plus optimizer state.
//
// The children of a split together hold at least their parent's
// residency, which is what makes it a floor. Every term is a sum of
// monomials A(F_l) = B·D_i·s_in, A(F_{l+1}) = B·D_o·s_out and
// A(W_l) = D_i·D_o·k, and optimizer state is linear in A(W_l). A split
// scales one extent of each unit (Table 3; both channel extents of a
// virtual junction, which holds no kernel and is not counted): a monomial
// that contains the extent is split between the two children, and one
// that does not (Type-I's kernel, Type-II's output, Type-III's input) is
// held whole by both. The two shares of an extent v,
// tensor.ScaleExtent(v, α) and tensor.ScaleExtent(v, 1−α), round α·v and
// (1−α)·v to the nearest integer, at least 1, and add up to at least v.
// So every monomial's children sum to at least its parent's
// (TestSplitResidencySuperadditive checks it on random splits).
func residencyAtDims(consts []unitConst, dims []extents, opt Options) int64 {
	var residency, weightElems int64
	inference := opt.Mode == ModeInference
	for i := range consts {
		k := &consts[i]
		if k.virtual {
			continue
		}
		s := k.sizes(dims[i], inference)
		residency += s.residentBytes()
		weightElems += s.aw
	}
	return residency + opt.Optimizer.StateBytes(weightElems)
}

// MinResidencyBytes returns the workload's aggregate resident footprint at
// root dims — a lower bound on the total HBM any fleet needs, since the
// children of every split together hold at least their parent's
// residency monomials (residencyAtDims). DSE sweeps use it to discard
// undersized candidate fleets before costing.
func MinResidencyBytes(net *dnn.Network, opt Options) (int64, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return 0, err
	}
	if err := net.Validate(); err != nil {
		return 0, err
	}
	units := net.Units()
	consts := make([]unitConst, len(units))
	dims := make([]extents, len(units))
	for i := range units {
		consts[i], dims[i] = constOf(&units[i]), extentsOf(units[i].Dims)
	}
	return residencyAtDims(consts, dims, opt), nil
}

// worstLeaf returns the leaf with the largest residency-to-capacity ratio
// in the subtree, and that ratio. A ratio ≤ 1 means every leaf fits
// (capacities are positive by hardware.Spec.Validate).
func worstLeaf(n *PlanNode) (*PlanNode, float64) {
	if n.IsLeaf() {
		return n, float64(n.LeafResidencyBytes) / float64(n.LeafHBMBytes)
	}
	l, lr := worstLeaf(n.Left)
	if n.Right == n.Left { // a shared child holds the same leaves at both positions
		return l, lr
	}
	r, rr := worstLeaf(n.Right)
	if lr >= rr {
		return l, lr
	}
	return r, rr
}

// subtreeFits reports whether every leaf of the subtree fits its group's
// HBM capacity.
func subtreeFits(n *PlanNode) bool {
	_, ratio := worstLeaf(n)
	return ratio <= 1
}

// memDFSMaxTries caps the fallback type-vector enumeration at one split:
// 3^6 assignments keeps the exhaustive tail interactive while making the
// constrained search complete on the small networks the property tests
// brute-force.
const memDFSMaxTries = 729

// constrainSplit retries one split whose unconstrained solution overflows.
// base is that solution; it doubles as the best-effort fallback and the
// diagnostic carrier. All candidates are generated in a fixed order and
// ties keep the earlier one, so the constrained search stays a pure
// function of (subtree, dims, options) — memoizable like any subproblem.
// The returned AuditMemory describes the ladder's outcome for the search
// audit (nil when the base solution already fits); it is built only when
// Options.Audit is attached and never influences the chosen plan.
func (p *planner) constrainSplit(node *hardware.Tree, dims []extents, sideI, sideJ Side, base *PlanNode) (*PlanNode, *AuditMemory, error) {
	audit := p.opt.Audit != nil
	memNote := func(outcome string, mult float64) *AuditMemory {
		if !audit {
			return nil
		}
		return &AuditMemory{Outcome: outcome, LambdaMult: mult}
	}
	if subtreeFits(base) {
		return base, nil, nil
	}
	// Admissible capacity floors: when the workload provably cannot fit
	// this subtree under any reachable plan, skip the candidate ladder —
	// this is the in-DP pruning of infeasible subtrees.
	need := residencyAtDims(p.consts, dims, p.opt)
	id := node.Identity()
	floor := id.HBMBytes
	if p.opt.Ratio == RatioEqual && id.CapFloorHalf < floor {
		floor = id.CapFloorHalf
	}
	if need > floor {
		obsMemoryPruned.Inc()
		var mem *AuditMemory
		if audit {
			mem = &AuditMemory{Outcome: OutcomeCapacityFloorPruned, NeedBytes: need, FloorBytes: floor}
		}
		return base, mem, nil
	}

	best := base
	_, bestOver := worstLeaf(base)
	tried := map[string]bool{candKey(base.Types, base.Alpha): true}
	// consider folds one candidate into the running best; it reports
	// whether the candidate fits (the ladder stops at the first fit —
	// mildest distortion first).
	consider := func(n *PlanNode) bool {
		k := candKey(n.Types, n.Alpha)
		if tried[k] {
			return false
		}
		tried[k] = true
		_, over := worstLeaf(n)
		if over < bestOver {
			best, bestOver = n, over
		}
		return over <= 1
	}

	// λ ladder: re-run the full alternation with an escalating residency
	// penalty folded into the DP unit costs. λ scales with the
	// unconstrained level cost so the pressure term is commensurate with
	// the objective regardless of units (seconds or bytes).
	scale := base.Eval.TimeI
	if base.Eval.TimeJ > scale {
		scale = base.Eval.TimeJ
	}
	if p.opt.Objective == ObjectiveCommOnly {
		scale = base.Eval.CommBytes
	}
	if !(scale > 0) {
		scale = 1
	}
	for _, mult := range [...]float64{1, 8, 64} {
		n, err := p.solveSplit(node, dims, sideI, sideJ, mult*scale)
		if err != nil {
			return nil, nil, err
		}
		if consider(n) {
			return best, memNote(OutcomeLambdaPenalized, mult), nil
		}
		// Under flexible ratios, residency follows the split ratio for
		// batch and channel shards alike: try the penalized types at the
		// capacity-proportional ratio too.
		if p.opt.Ratio == RatioFlexible && id.HBMBytes > 0 {
			capI := float64(node.Left.Identity().HBMBytes)
			alpha := cost.ClampRatio(capI / float64(id.HBMBytes))
			nc, err := p.buildSplit(node, dims, sideI, sideJ, n.Types, alpha)
			if err != nil {
				return nil, nil, err
			}
			if consider(nc) {
				return best, memNote(OutcomeCapacityRatio, mult), nil
			}
		}
	}

	// Complete fallback for small unit counts: enumerate every allowed
	// type vector in lexicographic order with the standard ratio solve.
	// This is what makes reject-mode infeasibility exact on the small
	// networks the property tests verify against brute force.
	if assignments := p.typeSpaceSize(); assignments > 0 && assignments <= memDFSMaxTries {
		ctx := p.level(dims, sideI, sideJ)
		defer p.levels.Put(ctx)
		types := make([]cost.Type, len(p.units))
		var enumerate func(u int) (*PlanNode, error)
		enumerate = func(u int) (*PlanNode, error) {
			if err := p.checkCtx(); err != nil {
				return nil, err
			}
			if u == len(p.units) {
				alpha := 0.5
				if p.opt.Ratio == RatioFlexible {
					a, err := ctx.solveRatio(types)
					if err != nil {
						return nil, err
					}
					alpha = a
				}
				n, err := p.buildSplit(node, dims, sideI, sideJ, append([]cost.Type(nil), types...), alpha)
				if err != nil {
					return nil, err
				}
				if consider(n) {
					return best, nil
				}
				return nil, nil
			}
			for _, t := range ctx.allowedTypes(u) {
				types[u] = t
				if n, err := enumerate(u + 1); n != nil || err != nil {
					return n, err
				}
			}
			return nil, nil
		}
		if n, err := enumerate(0); n != nil || err != nil {
			return n, memNote(OutcomeEnumerated, 0), err
		}
	}
	return best, memNote(OutcomeBestEffortOverflow, 0), nil
}

// typeSpaceSize returns the number of type vectors the fallback would
// enumerate at one split (the product of per-unit allowed-type counts),
// or a value above memDFSMaxTries as soon as the product exceeds it.
func (p *planner) typeSpaceSize() int {
	n := 1
	probe := levelCtx{opt: p.opt}
	for u := range p.units {
		probe.units = p.units[u : u+1]
		n *= len(probe.allowedTypes(0))
		if n > memDFSMaxTries {
			return n
		}
	}
	return n
}

// candKey fingerprints a (types, alpha) candidate for deduplication
// within one split's ladder.
func candKey(types []cost.Type, alpha float64) string {
	b := make([]byte, 0, len(types)+24)
	for _, t := range types {
		b = append(b, byte(t))
	}
	return string(b) + fmt.Sprintf("|%x", alpha)
}

// checkFeasible converts residual overflow in a finished plan into the
// typed infeasibility error under MemoryReject; MemoryPenalize and
// MemoryOff pass every plan through.
func (p *planner) checkFeasible(plan *Plan) error {
	if p.opt.MemoryLimit != MemoryReject {
		return nil
	}
	leaf, ratio := worstLeaf(plan.Root)
	if ratio <= 1 {
		return nil
	}
	return &NoFeasiblePlanError{
		TightestGroup:  leaf.GroupDesc,
		ResidencyBytes: leaf.LeafResidencyBytes,
		CapacityBytes:  leaf.LeafHBMBytes,
	}
}
