package eval

import (
	"context"
	"errors"
	"fmt"

	"accpar/internal/core"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/report"
)

// This file holds the memory-ceiling study: how each scheme's makespan
// responds as per-board HBM capacity shrinks, and where each scheme hits
// its infeasibility knee. The paper motivates multi-accelerator training
// partly by capacity (Section 2.3) and credits Type-II/III kernel
// sharding with making large models fit — so AccPar's complete type
// space should stay feasible below the ceiling at which the replicating
// baselines (all-Type-I data parallelism in particular) run out of HBM.

// MemoryCeilingResult is one (ceiling fraction, scheme) outcome under the
// reject-mode memory constraint.
type MemoryCeilingResult struct {
	// Fraction scales every board's HBM capacity (1 = Table 7 values).
	Fraction float64
	Model    string
	Scheme   core.Strategy
	// Feasible reports whether any plan fit; Time is meaningful only
	// when it did.
	Feasible bool
	Time     float64
}

// ceilingSchemes is the comparison set of the study: AccPar against the
// replication-heavy baselines whose feasibility knees it should beat.
var ceilingSchemes = []core.Strategy{core.StrategyDP, core.StrategyOWT, core.StrategyAccPar}

// MemoryCeilingSweep partitions the model on the heterogeneous array with
// every board's HBM scaled by each fraction, planning under MemoryReject
// in one AccPar portfolio run per fraction (a baseline is infeasible when
// its variant has no fitting plan), and tabulates makespan or
// infeasibility per scheme. Empty fractions
// default to a descending ladder that brackets every scheme's knee at the
// paper's scale.
func MemoryCeilingSweep(cfg Config, model string, fractions []float64) ([]MemoryCeilingResult, *report.Table, error) {
	cfg = cfg.withDefaults()
	if len(fractions) == 0 {
		fractions = []float64{1, 1.0 / 4, 1.0 / 16, 1.0 / 64, 1.0 / 256, 1.0 / 1024, 1.0 / 4096}
	}
	net, err := models.BuildNetwork(model, cfg.Batch)
	if err != nil {
		return nil, nil, err
	}
	var out []MemoryCeilingResult
	tbl := report.NewTable(
		fmt.Sprintf("Makespan vs memory ceiling on %s (reject mode; per-board HBM scaled)", model),
		"ceiling", "v2/v3 HBM", "DP", "OWT", "AccPar")
	for _, f := range fractions {
		v2, v3 := hardware.TPUv2(), hardware.TPUv3()
		v2.HBMBytes = scaleBytes(v2.HBMBytes, f)
		v3.HBMBytes = scaleBytes(v3.HBMBytes, f)
		arr, err := hardware.NewHeterogeneous(
			hardware.GroupSpec{Spec: v2, Count: cfg.PerKind},
			hardware.GroupSpec{Spec: v3, Count: cfg.PerKind})
		if err != nil {
			return nil, nil, err
		}
		tree, err := hardware.BuildTree(arr, 64)
		if err != nil {
			return nil, nil, err
		}
		row := []string{
			fmt.Sprintf("1/%g", 1/f),
			fmt.Sprintf("%s/%s", gib(v2.HBMBytes), gib(v3.HBMBytes)),
		}
		plans, winner, err := portfolio(context.TODO(), net, tree, nil, func(o *core.Options) { o.MemoryLimit = core.MemoryReject })
		if err != nil && !errors.Is(err, core.ErrNoFeasiblePlan) {
			return nil, nil, fmt.Errorf("eval: ceiling 1/%g: %w", 1/f, err)
		}
		for _, s := range ceilingSchemes {
			r := MemoryCeilingResult{Fraction: f, Model: model, Scheme: s}
			var plan *core.Plan
			if winner >= 0 { // else no variant fits, and no scheme does
				plan = plans[s.Variant(winner)]
			}
			if plan == nil {
				row = append(row, "infeasible")
			} else {
				r.Feasible = true
				r.Time = plan.Time()
				row = append(row, fmt.Sprintf("%.4g s", r.Time))
			}
			out = append(out, r)
		}
		tbl.AddRow(row...)
	}
	return out, tbl, nil
}

// gib renders a capacity in GiB with sub-GiB values kept readable.
func gib(b int64) string {
	v := float64(b) / float64(hardware.GiB)
	if v >= 1 {
		return fmt.Sprintf("%g GiB", v)
	}
	return fmt.Sprintf("%.3g GiB", v)
}

// scaleBytes scales a capacity, clamping at one byte so degenerate
// fractions stay valid specs.
func scaleBytes(b int64, f float64) int64 {
	v := int64(float64(b) * f)
	if v < 1 {
		return 1
	}
	return v
}
