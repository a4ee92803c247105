// Package faults defines deterministic, seedable fault and degradation
// models for the AccPar simulator and planner. AccPar's flexible
// partition ratio α (Eq. 10 of the paper) adapts to heterogeneous
// accelerator groups, and a degraded or faulty group is simply a more
// heterogeneous one: a straggling group is a group with lower computation
// density c_i, a throttled interconnect is a lower b_i. This package
// expresses such conditions as first-class fault objects that the
// discrete-event simulator injects per task (internal/sim), the hardware
// model turns into post-fault specifications (hardware.DegradeGroups),
// and the partitioner replans against (core.ReplanCtx).
//
// Four fault classes are modelled:
//
//   - Slowdown: a group's compute throughput divided by a factor
//     (thermal throttling, a straggling host, partial core loss).
//   - MemBW / NetBW: a group's HBM or network bandwidth divided by a
//     factor (contention, a downgraded link, a failing HBM stack).
//   - Transient: each task scheduled on the group fails with a fixed
//     probability and re-executes after a backoff delay.
//   - GroupLoss: a fraction of the group's accelerators is permanently
//     lost; the survivors carry on after a checkpoint-restart penalty.
//
// All stochastic draws come from a splitmix64 stream seeded by
// Scenario.Seed, so a scenario replays identically: same seed, same
// workload, same schedule ⇒ bit-identical results.
package faults

import (
	"fmt"
	"math"
	"strings"

	"accpar/internal/hardware"
)

// Kind classifies a fault.
type Kind int

const (
	// KindSlowdown divides the group's compute throughput by Factor.
	KindSlowdown Kind = iota
	// KindMemBW divides the group's HBM bandwidth by Factor.
	KindMemBW
	// KindNetBW divides the group's network bandwidth by Factor.
	KindNetBW
	// KindTransient fails each of the group's tasks with probability Rate;
	// every failed attempt re-executes after Backoff seconds.
	KindTransient
	// KindGroupLoss permanently removes Fraction of the group's
	// accelerators; a checkpoint-restart penalty is charged once.
	KindGroupLoss
)

// String names the kind with its parse keyword.
func (k Kind) String() string {
	switch k {
	case KindSlowdown:
		return "slowdown"
	case KindMemBW:
		return "membw"
	case KindNetBW:
		return "netbw"
	case KindTransient:
		return "transient"
	case KindGroupLoss:
		return "loss"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Fault is one injected fault bound to an accelerator group.
type Fault struct {
	// Kind selects the model.
	Kind Kind
	// Group is the index of the afflicted accelerator group (0-based, in
	// the order the array's groups were declared).
	Group int
	// Factor is the rate divisor of Slowdown/MemBW/NetBW faults, ≥ 1
	// (2.0 halves the resource).
	Factor float64
	// Rate is the per-task failure probability of Transient faults,
	// in [0, 1).
	Rate float64
	// Backoff is the re-execution delay of one failed attempt, seconds.
	Backoff float64
	// Fraction is the share of accelerators a GroupLoss fault removes,
	// in (0, 1): the group must keep at least one survivor for the
	// bi-partition to remain well-defined.
	Fraction float64
}

// Validate rejects malformed faults with a *BadFaultError.
func (f Fault) Validate() error {
	if f.Group < 0 {
		return &BadFaultError{Fault: f, Reason: "negative group index"}
	}
	switch f.Kind {
	case KindSlowdown, KindMemBW, KindNetBW:
		if math.IsNaN(f.Factor) || math.IsInf(f.Factor, 0) || f.Factor < 1 {
			return &BadFaultError{Fault: f, Reason: fmt.Sprintf("factor %g not a finite value ≥ 1", f.Factor)}
		}
	case KindTransient:
		if math.IsNaN(f.Rate) || f.Rate < 0 || f.Rate >= 1 {
			return &BadFaultError{Fault: f, Reason: fmt.Sprintf("rate %g outside [0,1)", f.Rate)}
		}
		if math.IsNaN(f.Backoff) || math.IsInf(f.Backoff, 0) || f.Backoff < 0 {
			return &BadFaultError{Fault: f, Reason: fmt.Sprintf("backoff %g not a finite value ≥ 0", f.Backoff)}
		}
	case KindGroupLoss:
		if math.IsNaN(f.Fraction) || f.Fraction <= 0 || f.Fraction >= 1 {
			return &BadFaultError{Fault: f, Reason: fmt.Sprintf("lost fraction %g outside (0,1)", f.Fraction)}
		}
	default:
		return &BadFaultError{Fault: f, Reason: fmt.Sprintf("unknown kind %d", int(f.Kind))}
	}
	return nil
}

// String renders the fault in the Parse syntax.
func (f Fault) String() string {
	switch f.Kind {
	case KindTransient:
		if f.Backoff > 0 {
			return fmt.Sprintf("transient:%d=%g@%g", f.Group, f.Rate, f.Backoff)
		}
		return fmt.Sprintf("transient:%d=%g", f.Group, f.Rate)
	case KindGroupLoss:
		return fmt.Sprintf("loss:%d=%g", f.Group, f.Fraction)
	default:
		return fmt.Sprintf("%v:%d=%g", f.Kind, f.Group, f.Factor)
	}
}

// BadFaultError reports a fault whose parameters are out of range.
type BadFaultError struct {
	Fault  Fault
	Reason string
}

func (e *BadFaultError) Error() string {
	return fmt.Sprintf("faults: invalid %v fault on group %d: %s", e.Fault.Kind, e.Fault.Group, e.Reason)
}

// Scenario bundles a fault set with the seed that makes its stochastic
// draws deterministic.
type Scenario struct {
	// Seed initializes the splitmix64 stream all probabilistic draws
	// come from.
	Seed int64
	// Faults are the injected faults, applied in order.
	Faults []Fault
	// CheckpointOverhead is the fixed restart cost (seconds) charged per
	// fired GroupLoss fault, on top of the re-execution of the progress
	// lost since the last checkpoint.
	CheckpointOverhead float64
}

// Empty reports whether the scenario injects nothing.
func (s *Scenario) Empty() bool { return s == nil || len(s.Faults) == 0 }

// Validate checks every fault and the checkpoint overhead.
func (s *Scenario) Validate() error {
	for _, f := range s.Faults {
		if err := f.Validate(); err != nil {
			return err
		}
	}
	if math.IsNaN(s.CheckpointOverhead) || math.IsInf(s.CheckpointOverhead, 0) || s.CheckpointOverhead < 0 {
		return fmt.Errorf("faults: checkpoint overhead %g not a finite value ≥ 0", s.CheckpointOverhead)
	}
	return nil
}

// MaxGroup returns the highest group index any fault targets, or -1 for
// an empty scenario.
func (s *Scenario) MaxGroup() int {
	top := -1
	for _, f := range s.Faults {
		top = max(top, f.Group)
	}
	return top
}

// String renders the scenario in the Parse syntax.
func (s *Scenario) String() string {
	if s.Empty() {
		return "none"
	}
	parts := make([]string, len(s.Faults))
	for i, f := range s.Faults {
		parts[i] = f.String()
	}
	return strings.Join(parts, ",")
}

// Divisors aggregates the multiplicative rate degradation of one group:
// the factor each resource is divided by, each ≥ 1 (1 = pristine).
type Divisors struct {
	Compute  float64
	MemBW    float64
	NetBW    float64
	Capacity float64
}

// Pristine reports whether no resource is degraded.
func (d Divisors) Pristine() bool {
	return d.Compute == 1 && d.MemBW == 1 && d.NetBW == 1 && d.Capacity == 1
}

// GroupDivisors folds the scenario's deterministic rate faults over one
// group. Transient faults are excluded — the simulator charges them per
// task — while a GroupLoss scales every resource (and the memory
// capacity) by the surviving fraction.
func (s *Scenario) GroupDivisors(group int) Divisors {
	d := Divisors{Compute: 1, MemBW: 1, NetBW: 1, Capacity: 1}
	if s == nil {
		return d
	}
	for _, f := range s.Faults {
		if f.Group != group {
			continue
		}
		switch f.Kind {
		case KindSlowdown:
			d.Compute *= f.Factor
		case KindMemBW:
			d.MemBW *= f.Factor
		case KindNetBW:
			d.NetBW *= f.Factor
		case KindGroupLoss:
			surv := 1 - f.Fraction
			d.Compute /= surv
			d.MemBW /= surv
			d.NetBW /= surv
			d.Capacity /= surv
		}
	}
	return d
}

// Degradations converts the scenario into the per-group post-fault
// hardware transforms the planner replans against. Transient faults
// appear as their expected re-execution inflation — every resource
// divided by (1 − Rate) — so the replanner shifts work away from a
// flaky group in proportion to its failure probability.
func (s *Scenario) Degradations() map[int]hardware.Degradation {
	out := map[int]hardware.Degradation{}
	if s == nil {
		return out
	}
	for _, f := range s.Faults {
		d, ok := out[f.Group]
		if !ok {
			d = hardware.Degradation{Compute: 1, MemBW: 1, NetBW: 1}
		}
		switch f.Kind {
		case KindSlowdown:
			d.Compute *= f.Factor
		case KindMemBW:
			d.MemBW *= f.Factor
		case KindNetBW:
			d.NetBW *= f.Factor
		case KindTransient:
			inflate := 1 / (1 - f.Rate)
			d.Compute *= inflate
			d.MemBW *= inflate
			d.NetBW *= inflate
		case KindGroupLoss:
			d.LostFraction = 1 - (1-d.LostFraction)*(1-f.Fraction)
		}
		out[f.Group] = d
	}
	return out
}
