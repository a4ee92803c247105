package dse

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"accpar/internal/core"
	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/obs"
	"accpar/internal/parallel"
)

// obsSweep is the sweep-latency histogram: one observation per Sweep.
var obsSweep = obs.NewTimer("dse.sweep.seconds")

// Config selects the workload and sweep mechanics.
type Config struct {
	// Model and Batch pick the workload (internal/models registry).
	Model string
	Batch int
	// Fault is the resilience scenario in faults.Parse syntax
	// (e.g. "slowdown:0=2.0,loss:1=0.25"); group indices refer to the
	// space's Kinds list, so the same physical kind degrades in every
	// candidate that procures it, and faults on kinds a candidate omits
	// simply don't afflict it. Empty disables the resilience axis
	// (resilience = makespan).
	Fault string
	// Workers bounds the candidate-level worker pool; 0 = GOMAXPROCS,
	// 1 = serial.
	Workers int
	// NoPrune has no effect: every candidate that passes the memory
	// pre-prune is planned in full.
	//
	// Deprecated: the sweep no longer prunes on a lower bound.
	NoPrune bool
	// Memory selects the planner's HBM-capacity constraint for every
	// candidate. Any mode but MemoryOff also pre-prunes candidates whose
	// aggregate HBM cannot hold the workload's minimum residency
	// (core.MinResidencyBytes) before any costing runs; candidates whose
	// constrained search still finds nothing fitting are marked
	// Infeasible and excluded from the frontier.
	Memory core.MemoryMode
	// KeepPlans retains each evaluated candidate's winning plan as its
	// canonical JSON rendering, for equivalence testing against
	// standalone searches. Off by default: a big sweep's plans dwarf
	// its metrics.
	KeepPlans bool
}

// Result is one candidate's sweep outcome.
type Result struct {
	Candidate
	// Makespan is the best variant's modelled iteration time (s).
	Makespan float64 `json:"makespan_s"`
	// Resilience is the post-fault makespan after degradation-aware
	// replanning (stale-vs-fresh adoption) under Config.Fault (s).
	Resilience float64 `json:"resilience_s"`
	// Strategy describes the winning portfolio variant.
	Strategy string `json:"strategy,omitempty"`
	// Variant is the winning variant's index in core.StrategyAccPar.Variants().
	Variant int `json:"variant"`
	// Infeasible marks candidates the workload cannot fit under
	// Config.Memory: pre-pruned on the aggregate-capacity floor (no
	// metrics) or searched without finding a fitting plan. Infeasible
	// candidates never join the frontier.
	Infeasible bool `json:"infeasible,omitempty"`
	// PlanJSON is the winning plan's canonical rendering, retained only
	// under Config.KeepPlans.
	PlanJSON []byte `json:"-"`
}

// Report is a completed sweep. Every field is deterministic across
// worker counts; the frontier artifact (WriteFrontierJSON) carries the
// frontier and its inputs only.
type Report struct {
	Model      string `json:"model"`
	Batch      int    `json:"batch"`
	Fault      string `json:"fault"`
	Candidates int    `json:"candidates"`
	// Evaluated counts candidates planned in full and not Infeasible.
	Evaluated int `json:"-"`
	// Pruned is always 0.
	//
	// Deprecated: the sweep no longer prunes on a lower bound; memory
	// pre-pruned candidates count as Infeasible.
	Pruned int `json:"-"`
	// Infeasible counts candidates the workload cannot fit under
	// Config.Memory (pre-pruned or searched without a fitting plan).
	Infeasible int `json:"-"`
	// Frontier is the Pareto-optimal set over (makespan, cost,
	// resilience), sorted cheapest-first.
	Frontier []Result `json:"frontier"`
	// Results holds every candidate in enumeration order, including
	// infeasible ones.
	Results []Result `json:"-"`
}

// frontierEntry is the deterministic subset of a Result the frontier
// artifact carries.
type frontierEntry struct {
	Name       string  `json:"name"`
	Levels     int     `json:"levels"`
	NetScale   float64 `json:"net_scale"`
	Cost       float64 `json:"cost"`
	Makespan   float64 `json:"makespan_s"`
	Resilience float64 `json:"resilience_s"`
	Strategy   string  `json:"strategy"`
}

// WriteFrontierJSON writes the deterministic frontier artifact: two
// sweeps over the same space and workload produce byte-identical
// output regardless of worker count, which CI asserts.
func (r *Report) WriteFrontierJSON(w io.Writer) error {
	out := struct {
		Model      string          `json:"model"`
		Batch      int             `json:"batch"`
		Fault      string          `json:"fault"`
		Candidates int             `json:"candidates"`
		Frontier   []frontierEntry `json:"frontier"`
	}{Model: r.Model, Batch: r.Batch, Fault: r.Fault, Candidates: r.Candidates}
	for _, f := range r.Frontier {
		out.Frontier = append(out.Frontier, frontierEntry{
			Name:       f.Name,
			Levels:     f.Levels,
			NetScale:   f.NetScale,
			Cost:       f.Cost,
			Makespan:   f.Makespan,
			Resilience: f.Resilience,
			Strategy:   f.Strategy,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Sweep enumerates the space and evaluates every candidate on one
// sweep-lifetime plan cache (core.SharedCache): plan with the full AccPar
// portfolio, model the post-fault replanned makespan with the winning
// variant's options, and evaluate candidates whose level caps truncate to
// identical hardware exactly once. Evaluations fan out
// over a deterministic worker pool; every plan is byte-identical to a
// standalone AccPar portfolio search, so the frontier is a pure function
// of (space, config).
func Sweep(ctx context.Context, space *Space, cfg Config) (*Report, error) {
	start := time.Now()
	defer func() { obsSweep.Observe(time.Since(start)) }()

	cands, err := space.Enumerate()
	if err != nil {
		return nil, err
	}
	if len(cands) == 0 {
		return nil, fmt.Errorf("dse: space enumerates no candidates (budget too tight?)")
	}
	net, err := models.BuildNetwork(cfg.Model, cfg.Batch)
	if err != nil {
		return nil, err
	}
	// The default capacity holds a sweep's whole working set (the
	// plannerbench grid stores 1,348 entries), so the cache lives and dies
	// with the sweep without trimming.
	cache := core.NewSharedCache(0)
	variants := core.StrategyAccPar.Variants()
	for i := range variants {
		variants[i].MemoryLimit = cfg.Memory
		variants[i].Cache = cache
	}
	// The workload's minimum residency is fleet-independent; one
	// computation serves every capacity pre-prune below.
	var minResidency int64
	if cfg.Memory != core.MemoryOff {
		minResidency, err = core.MinResidencyBytes(net, core.AccPar())
		if err != nil {
			return nil, err
		}
	}
	var scenario *faults.Scenario
	if cfg.Fault != "" {
		fs, err := faults.Parse(cfg.Fault)
		if err != nil {
			return nil, err
		}
		scenario = &faults.Scenario{Faults: fs}
		if err := scenario.Validate(); err != nil {
			return nil, err
		}
		if top := scenario.MaxGroup(); top >= len(space.Kinds) {
			return nil, fmt.Errorf("dse: fault targets kind index %d but the space declares %d kinds", top, len(space.Kinds))
		}
	}
	kindIndex := make(map[string]int, len(space.Kinds))
	for i, k := range space.Kinds {
		kindIndex[k.Name] = i
	}

	// Group candidates that build literally identical hardware: the same
	// composition and link tier whose level caps truncate to the same
	// depth (for both the pristine and the degraded tree). Each group is
	// planned once and the outcome copied to every member — the memo would
	// serve the duplicates from their root digest anyway, but skipping
	// them avoids the portfolio's nine root-hit searches with their
	// Validate walks and, under a fault, the replan's three passes; a DSE
	// grid's level axis makes such duplicates common (every cap deeper
	// than the fleet needs yields the same tree).
	type job struct {
		members        []int // candidate indices in enumeration order
		tree, degraded *hardware.Tree
	}
	var jobs []*job
	byTree := map[string]*job{}
	for i := range cands {
		c := &cands[i]
		tree, err := c.Tree()
		if err != nil {
			return nil, err
		}
		degraded, err := degradedTree(c, scenario, kindIndex)
		if err != nil {
			return nil, err
		}
		degradedDepth := 0
		if degraded != nil {
			degradedDepth = degraded.Depth()
		}
		key := fmt.Sprintf("%v|%v|%g|%d|%d", c.Kinds, c.CountsPerKind, c.NetScale, tree.Depth(), degradedDepth)
		if j, ok := byTree[key]; ok {
			j.members = append(j.members, i)
			continue
		}
		j := &job{members: []int{i}, tree: tree, degraded: degraded}
		byTree[key] = j
		jobs = append(jobs, j)
	}

	results := make([]Result, len(cands))
	err = parallel.ForEachCtx(ctx, len(jobs), cfg.Workers, func(ji int) error {
		j := jobs[ji]
		r := Result{Variant: -1}
		finish := func() {
			for _, i := range j.members {
				out := r
				out.Candidate = cands[i]
				results[i] = out
			}
		}
		if cfg.Memory != core.MemoryOff && minResidency > j.tree.Group.HBMBytes() {
			// The fleet's total HBM cannot hold the workload under any
			// plan (residency is superadditive under splits): discard
			// before any search runs.
			core.NoteDSEMemoryPruned(len(j.members))
			r.Infeasible = true
			finish()
			return nil
		}
		plans, variant, err := core.PartitionAllCtx(ctx, net, j.tree, variants...)
		if err != nil {
			if errors.Is(err, core.ErrNoFeasiblePlan) {
				r.Infeasible = true
				finish()
				return nil
			}
			return err
		}
		plan := plans[variant]
		if cfg.Memory != core.MemoryOff && !plan.Memory().OK {
			// Penalize mode returns the best effort; an overflowing best
			// effort still disqualifies the candidate.
			r.Infeasible = true
		}
		r.Makespan = plan.Time()
		r.Resilience = r.Makespan
		if j.degraded != nil {
			// The pristine plan is the root hit the portfolio left behind,
			// and degraded subtrees common to many candidates are solved
			// once.
			rep, err := core.ReplanCtx(ctx, net, j.tree, j.degraded, variants[variant])
			if err != nil {
				if errors.Is(err, core.ErrNoFeasiblePlan) {
					r.Infeasible = true
					finish()
					return nil
				}
				return err
			}
			r.Resilience = rep.Replanned.Time()
		}
		r.Variant = variant
		r.Strategy = plan.Strategy
		if cfg.KeepPlans {
			if r.PlanJSON, err = plan.AppendJSON(nil); err != nil {
				return err
			}
		}
		finish()
		return nil
	})
	if err != nil {
		return nil, core.WrapCtxErr(err)
	}

	rep := &Report{
		Model:      cfg.Model,
		Batch:      cfg.Batch,
		Fault:      cfg.Fault,
		Candidates: len(cands),
		Results:    results,
	}
	for _, r := range results {
		if r.Infeasible {
			rep.Infeasible++
		} else {
			rep.Evaluated++
		}
	}
	rep.Frontier = frontierOf(results)
	return rep, nil
}

// degradedTree builds the candidate's post-fault hierarchy, or nil for
// an empty scenario. Scenario group indices name kinds of the space
// (kindIndex maps kind name → space index); they are remapped onto the
// candidate's present groups, and faults on absent kinds are dropped —
// a fleet cannot lose hardware it never procured.
func degradedTree(c *Candidate, scenario *faults.Scenario, kindIndex map[string]int) (*hardware.Tree, error) {
	if scenario.Empty() {
		return nil, nil
	}
	byKind := scenario.Degradations()
	degs := make(map[int]hardware.Degradation, len(byKind))
	for gi, kind := range c.Kinds {
		if d, ok := byKind[kindIndex[kind]]; ok {
			degs[gi] = d
		}
	}
	if len(degs) == 0 {
		return nil, nil
	}
	groups, err := hardware.DegradeGroups(c.Groups(), degs)
	if err != nil {
		return nil, fmt.Errorf("dse: candidate %s: %w", c.Name, err)
	}
	arr, err := hardware.NewHeterogeneous(groups...)
	if err != nil {
		return nil, fmt.Errorf("dse: candidate %s degraded: %w", c.Name, err)
	}
	return hardware.BuildTree(arr, c.Levels)
}

// frontierOf extracts the Pareto-optimal feasible results and sorts
// them deterministically.
func frontierOf(results []Result) []Result {
	var front []Result
	for i, r := range results {
		if r.Infeasible {
			continue
		}
		dominated := false
		for j, o := range results {
			if i == j || o.Infeasible {
				continue
			}
			if dominates(o.Makespan, o.Cost, o.Resilience, r.Makespan, r.Cost, r.Resilience) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, r)
		}
	}
	sortResults(front)
	return front
}
