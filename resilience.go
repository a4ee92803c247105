package accpar

import (
	"context"
	"fmt"
	"strings"
	"time"

	"accpar/internal/core"
	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/obs"
)

// Fault-injection building blocks, re-exported from internal/faults. A
// degraded accelerator group is simply a more heterogeneous one: the same
// flexible-ratio machinery (Eq. 10 of the paper) that balances TPU-v2
// against TPU-v3 also rebalances a healthy group against a throttled,
// flaky or partially lost one.
type (
	// Fault is one injected fault bound to an accelerator group.
	Fault = faults.Fault
	// FaultKind classifies a fault.
	FaultKind = faults.Kind
	// FaultScenario bundles faults with the seed making them
	// deterministic.
	FaultScenario = faults.Scenario
	// Degradation is the post-fault hardware transform of one group.
	Degradation = hardware.Degradation
	// ReplanReport is the analytic three-way replanning comparison.
	ReplanReport = core.ReplanReport
	// ReplanStats reports how much of a replan was served from the memo
	// or plan cache versus re-solved.
	ReplanStats = core.ReplanStats
)

// The fault kinds.
const (
	// FaultSlowdown divides a group's compute throughput by Factor.
	FaultSlowdown = faults.KindSlowdown
	// FaultMemBW divides a group's HBM bandwidth by Factor.
	FaultMemBW = faults.KindMemBW
	// FaultNetBW divides a group's network bandwidth by Factor.
	FaultNetBW = faults.KindNetBW
	// FaultTransient fails each task on the group with probability Rate.
	FaultTransient = faults.KindTransient
	// FaultGroupLoss permanently removes Fraction of a group's
	// accelerators.
	FaultGroupLoss = faults.KindGroupLoss
)

// ParseFaults decodes a comma-separated fault spec list, e.g.
// "slowdown:0=2.0,netbw:1=4,transient:0=0.05@0.001,loss:1=0.25".
func ParseFaults(spec string) ([]Fault, error) { return faults.Parse(spec) }

// DegradeArrayGroups applies a scenario's deterministic degradations to
// an array's group list, producing the post-fault groups the planner
// replans against.
func DegradeArrayGroups(groups []ArrayGroup, sc *FaultScenario) ([]ArrayGroup, error) {
	return hardware.DegradeGroups(groups, sc.Degradations())
}

// ReplanAnalytic runs the analytic (cost-model) replanning pipeline for a
// fault scenario: partition the pristine array, re-cost the stale
// decisions on the degraded array, partition the degraded array from
// scratch, and adopt the better post-fault plan.
func ReplanAnalytic(net *Network, groups []ArrayGroup, strategy Strategy, sc *FaultScenario) (*ReplanReport, error) {
	return replanAnalyticCtx(context.Background(), nil, net, groups, strategy.Options(), sc)
}

// replanAnalyticCtx is the options-level replanning pipeline behind
// ReplanAnalytic and Session.Replan, bound to a context and an optional
// plan cache. With a cache (Session calls) the replan searches on it, so
// a recurrent fault — the same (network, options, degraded hardware) seen
// again — is a few memo lookups instead of a full search; without one
// (package-level calls) the replan gives the same bytes on a private
// memo. Each replan is one observation of the core.replan.seconds
// histogram, adds its memo reuse to core.replan_incremental_hits, and
// logs one core.replan event.
func replanAnalyticCtx(ctx context.Context, cache *PlanCache, net *Network, groups []ArrayGroup, opt Options, sc *FaultScenario) (*ReplanReport, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	arr, err := HeterogeneousArray(groups...)
	if err != nil {
		return nil, err
	}
	dgroups, err := DegradeArrayGroups(groups, sc)
	if err != nil {
		return nil, err
	}
	darr, err := HeterogeneousArray(dgroups...)
	if err != nil {
		return nil, err
	}
	pristine, err := hardware.BuildTree(arr, 64)
	if err != nil {
		return nil, err
	}
	degraded, err := hardware.BuildTree(darr, 64)
	if err != nil {
		return nil, err
	}
	opt.Cache = cache
	start := time.Now()
	rep, err := core.ReplanCtx(ctx, net, pristine, degraded, opt)
	if err != nil {
		return nil, err
	}
	core.ObserveReplan(time.Since(start), rep.Stats)
	obs.Log().Info("core.replan",
		"adopted", rep.Adopted,
		"fault_free_seconds", rep.FaultFree.Time(),
		"stale_seconds", rep.Stale.Time(),
		"fresh_seconds", rep.Fresh.Time())
	return rep, nil
}

// ResilienceReport is the simulated three-way comparison of a fault
// scenario: the fault-free run, the stale plan executed under the
// faults, and the degradation-aware replanned run under the same faults.
type ResilienceReport struct {
	// Scenario is the injected fault scenario.
	Scenario FaultScenario
	// FaultFreePlan is the plan derived for the pristine array; its root
	// decision drives both the fault-free and the stale runs.
	FaultFreePlan *Plan
	// ReplannedPlan is the adopted post-fault plan: the fresh
	// degradation-aware plan when its simulated makespan improves on the
	// stale run, otherwise FaultFreePlan (the replanner never switches to
	// a plan the simulator predicts to be worse).
	ReplannedPlan *Plan
	// FaultFree, Stale and Replanned are the three simulated runs.
	FaultFree, Stale, Replanned *SimResult
	// Adopted reports whether the fresh plan was adopted.
	Adopted bool
	// MachineNames labels the two groups in reports.
	MachineNames [2]string
	// Replan reports how much of the experiment's two partition searches
	// was served from the memo or the session cache versus re-solved, and
	// how many cache entries their trims evicted.
	Replan ReplanStats
}

// Impact returns the fractional makespan increase the faults inflict on
// the stale plan: Stale/FaultFree − 1.
func (r *ResilienceReport) Impact() float64 {
	if r.FaultFree.Time == 0 {
		return 0
	}
	return r.Stale.Time/r.FaultFree.Time - 1
}

// Recovery returns the fraction of the fault-induced slowdown the
// replanned run wins back: (Stale − Replanned) / (Stale − FaultFree).
// Zero when the faults cost nothing.
func (r *ResilienceReport) Recovery() float64 {
	gap := r.Stale.Time - r.FaultFree.Time
	if gap <= 0 {
		return 0
	}
	return (r.Stale.Time - r.Replanned.Time) / gap
}

// String renders the three-way resilience table.
func (r *ResilienceReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "faults: %s (seed %d)\n\n", r.Scenario.String(), r.Scenario.Seed)
	fmt.Fprintf(&b, "%-12s %14s %8s %9s %12s\n", "run", "makespan", "alpha", "retries", "lost time")
	row := func(name string, res *SimResult, alpha float64, note string) {
		fmt.Fprintf(&b, "%-12s %12.6g s %8.3f %9d %10.4g s%s\n",
			name, res.Time, alpha, res.Retries[0]+res.Retries[1], res.LostTime[0]+res.LostTime[1], note)
	}
	row("fault-free", r.FaultFree, r.FaultFreePlan.Root.Alpha, "")
	row("stale", r.Stale, r.FaultFreePlan.Root.Alpha, "")
	note := "  (kept stale plan)"
	if r.Adopted {
		note = "  (adopted)"
	}
	row("replanned", r.Replanned, r.ReplannedPlan.Root.Alpha, note)
	fmt.Fprintf(&b, "\nfault impact +%.1f%% · replanning recovers %.1f%% of the degradation\n",
		100*r.Impact(), 100*r.Recovery())
	return b.String()
}

// Resilience runs the full fault-injection experiment on a two-group
// array: partition the pristine array with the strategy, simulate one
// iteration fault-free, simulate the same (now stale) decision under the
// fault scenario, replan against the degraded specs and simulate the
// replanned decision under the same scenario with the same seed. The
// replanned result is adopted only if its simulated makespan beats the
// stale run, so Replanned.Time ≤ Stale.Time always holds.
func Resilience(net *Network, groups []ArrayGroup, strategy Strategy, sc FaultScenario, cfg SimConfig) (*ResilienceReport, error) {
	return resilienceCtx(context.Background(), nil, net, groups, strategy, sc, cfg)
}

// resilienceCtx is Resilience through an optional plan cache and a
// context; it backs the package-level entry point (no cache, background
// context) and Session. With a cache the pristine array is one root hit
// per variant on every call after the first. The partition searches
// poll ctx themselves; the simulation phases are not cancellation-aware,
// so the pipeline re-checks ctx between phases — an abort is observed
// within one phase.
func resilienceCtx(ctx context.Context, cache *PlanCache, net *Network, groups []ArrayGroup, strategy Strategy, sc FaultScenario, cfg SimConfig) (*ResilienceReport, error) {
	if len(groups) != 2 {
		return nil, fmt.Errorf("accpar: resilience needs exactly 2 accelerator groups, got %d", len(groups))
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if g := sc.MaxGroup(); g > 1 {
		return nil, fmt.Errorf("accpar: fault targets group %d of a 2-group array", g)
	}
	arr, err := HeterogeneousArray(groups...)
	if err != nil {
		return nil, err
	}
	// The experiment's phases carry spans so a trace of a resilience run
	// reads as its pipeline: plan, three simulations, replan.
	var stats ReplanStats
	sp := obs.StartSpanCtx(ctx, "resilience", "plan-pristine")
	plan, err := partitionCtx(ctx, net, arr, 64, cache, &stats, strategy.Variants()...)
	sp.End()
	if err != nil {
		return nil, err
	}
	a := GroupMachine(groups[0].Spec, groups[0].Count)
	b := GroupMachine(groups[1].Spec, groups[1].Count)

	pristineCfg := cfg
	pristineCfg.Faults = nil
	sp = obs.StartSpanCtx(ctx, "resilience", "simulate-fault-free")
	free, err := Simulate(net, plan.Root.Types, plan.Root.Alpha, a, b, pristineCfg)
	sp.End()
	if err != nil {
		return nil, err
	}
	if err := core.WrapCtxErr(ctx.Err()); err != nil {
		return nil, err
	}

	faultedCfg := cfg
	faultedCfg.Faults = &sc
	sp = obs.StartSpanCtx(ctx, "resilience", "simulate-stale")
	stale, err := Simulate(net, plan.Root.Types, plan.Root.Alpha, a, b, faultedCfg)
	sp.End()
	if err != nil {
		return nil, err
	}

	// Replan against the post-fault specs. The simulator applies the same
	// scenario to the pristine machines itself, so both faulted runs see
	// identical hardware and injection streams — only the decision
	// differs.
	dgroups, err := DegradeArrayGroups(groups, &sc)
	if err != nil {
		return nil, err
	}
	darr, err := HeterogeneousArray(dgroups...)
	if err != nil {
		return nil, err
	}
	// The degraded search is the fault-response path: its wall-clock time
	// feeds the process-wide replan-latency histogram, and the run's memo
	// reuse the replan hit counter, so serving metrics report one
	// distribution for replan-after-fault no matter which entry point
	// triggered it.
	sp = obs.StartSpanCtx(ctx, "resilience", "plan-degraded")
	replanStart := time.Now()
	dplan, err := partitionCtx(ctx, net, darr, 64, cache, &stats, strategy.Variants()...)
	sp.End()
	if err != nil {
		return nil, err
	}
	core.ObserveReplan(time.Since(replanStart), stats)
	if err := core.WrapCtxErr(ctx.Err()); err != nil {
		return nil, err
	}
	sp = obs.StartSpanCtx(ctx, "resilience", "simulate-replanned")
	replanned, err := Simulate(net, dplan.Root.Types, dplan.Root.Alpha, a, b, faultedCfg)
	sp.End()
	if err != nil {
		return nil, err
	}

	rep := &ResilienceReport{
		Scenario:      sc,
		FaultFreePlan: plan,
		ReplannedPlan: dplan,
		FaultFree:     free,
		Stale:         stale,
		Replanned:     replanned,
		Adopted:       replanned.Time < stale.Time,
		MachineNames:  [2]string{a.Name, b.Name},
		Replan:        stats,
	}
	if !rep.Adopted {
		rep.Replanned = stale
		rep.ReplannedPlan = plan
	}
	return rep, nil
}
