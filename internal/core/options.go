// Package core implements the AccPar partitioning algorithm (Section 5 of
// the paper): layer-wise dynamic programming over the complete three-type
// partition space (Eq. 9), multi-path search for ResNet-style topologies
// (Section 5.2), flexible partitioning ratios for heterogeneous accelerator
// groups (Section 5.3, Eq. 10), and hierarchical (recursive) partitioning
// across the accelerator-array hierarchy.
//
// The same engine, restricted through Options, reproduces the baselines:
// data parallelism (all Type-I), "one weird trick" (CONV→Type-I,
// FC→Type-II), and HyPar (two types, communication-only objective, equal
// ratios, linearized graphs).
package core

import (
	"fmt"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/optimizer"
)

// Objective selects what the dynamic programming minimizes.
type Objective int

const (
	// ObjectiveTime minimizes execution time per iteration: computation
	// cost (Eq. 8) plus communication cost (Eq. 7) of the slower of the two
	// accelerator groups at each step. This is AccPar's joint objective.
	ObjectiveTime Objective = iota
	// ObjectiveCommOnly minimizes total communicated bytes, using
	// communication as a proxy for performance — HyPar's objective, kept
	// for the baseline and the ablation study.
	ObjectiveCommOnly
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case ObjectiveTime:
		return "time"
	case ObjectiveCommOnly:
		return "comm-only"
	default:
		return fmt.Sprintf("Objective(%d)", int(o))
	}
}

// RatioMode selects how the partitioning ratio α is chosen at each
// hierarchy split.
type RatioMode int

const (
	// RatioFlexible solves Eq. 10 to balance the two groups' combined
	// computation + communication cost (AccPar).
	RatioFlexible RatioMode = iota
	// RatioEqual always splits 50/50, as OWT, HyPar and plain data
	// parallelism do.
	RatioEqual
)

// String names the ratio mode.
func (m RatioMode) String() string {
	switch m {
	case RatioFlexible:
		return "flexible"
	case RatioEqual:
		return "equal"
	default:
		return fmt.Sprintf("RatioMode(%d)", int(m))
	}
}

// FixedAssignment pins a layer to a partition type, bypassing the search.
// Returning ok=false leaves the layer free. Virtual junction units are
// always free regardless of the assignment function.
type FixedAssignment func(layer dnn.WeightedLayer) (t cost.Type, ok bool)

// Options configures the partitioning engine.
type Options struct {
	// Types is the allowed partition-type set. Empty means the complete
	// space {Type-I, Type-II, Type-III}.
	Types []cost.Type
	// Objective is the DP optimization target. Default ObjectiveTime.
	Objective Objective
	// Ratio selects flexible (Eq. 10) or equal splits. Default
	// RatioFlexible.
	Ratio RatioMode
	// Fixed, when non-nil, statically assigns types (for the DP and OWT
	// baselines).
	Fixed FixedAssignment
	// Linearize flattens multi-path segments into a chain before
	// searching, modelling HyPar's linear-structure restriction.
	Linearize bool
	// Optimizer selects the weight-update rule whose arithmetic and memory
	// traffic the leaf execution model charges (Section 2.1 of the paper
	// describes the training algorithms). Default SGD.
	Optimizer optimizer.Kind
	// Topology selects the interconnect wiring that determines each
	// group's effective cross-split bandwidth. Default FullBisection (every
	// member link contributes).
	Topology hardware.Topology
	// Exhaustive replaces the dynamic programming with a full O(3^N)
	// enumeration at every hierarchy node — the brute force Section 5.1
	// dismisses at scale. Errors for networks above MaxExhaustiveUnits
	// units; intended for validating the search on small models.
	Exhaustive bool
	// Mode selects training (all three phases, the paper's problem) or
	// inference (forward only — Section 1: inference performs only data
	// forward). Default ModeTraining.
	Mode Mode
	// Parallelism bounds the worker pool the hierarchical search fans its
	// recursion over: 0 uses one worker per available CPU
	// (runtime.GOMAXPROCS), 1 selects the serial reference path (no
	// goroutines are spawned). The produced plan is byte-identical across
	// all settings — every subproblem is pure, so scheduling cannot change
	// results — which the equivalence tests enforce.
	Parallelism int
	// MemoryLimit selects how the search treats per-leaf HBM capacity:
	// ignore it (the default — Plan.Memory still reports overflow after
	// the fact), reject plans that do not fit (*NoFeasiblePlanError when
	// nothing reachable fits), or penalize overflow and return the best
	// effort. The constrained search runs the exact unconstrained solve
	// first at every split, so plans are byte-identical to MemoryOff
	// whenever the constraint is inactive or non-binding.
	MemoryLimit MemoryMode
	// Cache, when non-nil, is the cross-run subproblem cache a search
	// runs on: PartitionCtx (and the sweep entry points built on it),
	// ReplanCtx and StalePlan read and store their subproblems in the
	// cache's memo for their fingerprint, and reuse its search shape,
	// instead of building their own, and trim the cache to its bound when
	// they finish. Plans are byte-identical with the cache disabled, cold
	// or warm — caching changes wall-clock only, never decisions — which
	// the cache equivalence tests enforce.
	// Cache is identity, not configuration: it never influences results,
	// so it takes no part in the search fingerprint.
	Cache *SharedCache
	// Audit, when non-nil, records every subproblem decision the search
	// makes — candidates, costs, winners, prune reasons, memo provenance —
	// into the given recorder (audit.go). Like Cache, Audit is observation,
	// not configuration: plans are byte-identical with and without it, and
	// it takes no part in the search fingerprint.
	Audit *AuditRecorder
}

// MemoryMode selects how the search treats per-leaf HBM capacity.
type MemoryMode int

const (
	// MemoryOff ignores capacity during the search; Plan.Memory still
	// reports residency and overflow post-hoc. Default.
	MemoryOff MemoryMode = iota
	// MemoryReject requires every leaf of the returned plan to fit its
	// group's HBM; when no reachable plan fits, the search returns a
	// typed *NoFeasiblePlanError carrying the tightest leaf.
	MemoryReject
	// MemoryPenalize runs the same constrained search as MemoryReject but
	// returns the best effort — the attempt with the smallest peak
	// overflow — instead of an error when nothing fits.
	MemoryPenalize
)

// String names the memory mode.
func (m MemoryMode) String() string {
	switch m {
	case MemoryOff:
		return "off"
	case MemoryReject:
		return "reject"
	case MemoryPenalize:
		return "penalize"
	default:
		return fmt.Sprintf("MemoryMode(%d)", int(m))
	}
}

// Mode selects which phases the workload executes.
type Mode int

const (
	// ModeTraining costs forward + backward + gradient (the default).
	ModeTraining Mode = iota
	// ModeInference costs the forward phase only: Type-I and Type-III lose
	// their intra-layer exchanges entirely, conversions move feature maps
	// but no errors, and the weight-update phase disappears.
	ModeInference
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeTraining:
		return "training"
	case ModeInference:
		return "inference"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// withDefaults returns a copy with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if len(o.Types) == 0 {
		o.Types = cost.Types
	}
	return o
}

// validate rejects malformed options.
func (o Options) validate() error {
	if len(o.Types) == 0 {
		return fmt.Errorf("core: empty type set")
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("core: negative parallelism %d", o.Parallelism)
	}
	switch o.MemoryLimit {
	case MemoryOff, MemoryReject, MemoryPenalize:
	default:
		return fmt.Errorf("core: invalid memory mode %d", int(o.MemoryLimit))
	}
	seen := map[cost.Type]bool{}
	for _, t := range o.Types {
		if t != cost.TypeI && t != cost.TypeII && t != cost.TypeIII {
			return fmt.Errorf("core: invalid type %d", int(t))
		}
		if seen[t] {
			return fmt.Errorf("core: duplicate type %v", t)
		}
		seen[t] = true
	}
	return nil
}

// AccPar returns the full AccPar configuration: complete type space, joint
// time objective, flexible ratios, native multi-path search.
func AccPar() Options {
	return Options{Objective: ObjectiveTime, Ratio: RatioFlexible}
}

// DataParallel returns the data-parallelism baseline: every layer Type-I,
// equal ratios.
func DataParallel() Options {
	return Options{
		Objective: ObjectiveTime,
		Ratio:     RatioEqual,
		Fixed: func(dnn.WeightedLayer) (cost.Type, bool) {
			return cost.TypeI, true
		},
	}
}

// OWT returns the "one weird trick" baseline: CONV layers Type-I (data
// parallelism), FC layers Type-II (model parallelism), equal ratios.
func OWT() Options {
	return Options{
		Objective: ObjectiveTime,
		Ratio:     RatioEqual,
		Fixed: func(l dnn.WeightedLayer) (cost.Type, bool) {
			if l.Kind == dnn.KindFC {
				return cost.TypeII, true
			}
			return cost.TypeI, true
		},
	}
}

// HyPar returns the HyPar baseline: incomplete type space {Type-I,
// Type-II}, communication-only objective, equal ratios, linearized graphs
// (Section 3.5 lists exactly these four limitations).
func HyPar() Options {
	return Options{
		Types:     []cost.Type{cost.TypeI, cost.TypeII},
		Objective: ObjectiveCommOnly,
		Ratio:     RatioEqual,
		Linearize: true,
	}
}
