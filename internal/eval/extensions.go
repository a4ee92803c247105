package eval

import (
	"context"
	"fmt"

	"accpar/internal/core"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/report"
)

// This file holds extension experiments beyond the paper's figures: the
// interconnect-topology sensitivity study and the batch-size sweep. Both
// probe regimes the paper's analysis predicts — communication-bound plans
// should react strongly to bisection bandwidth, and Type-I's relative
// appeal should grow with batch size (Section 6.2's model-size vs
// compute-density argument).

// TopologyResult is one (topology, scheme) outcome.
type TopologyResult struct {
	Topology hardware.Topology
	Model    string
	Scheme   core.Strategy
	Time     float64
	Speedup  float64 // vs DP under the same topology
}

// TopologySweep evaluates every scheme under every interconnect topology
// on the heterogeneous array.
func TopologySweep(cfg Config, model string) ([]TopologyResult, *report.Table, error) {
	cfg = cfg.withDefaults()
	tree, err := HeterogeneousTree(cfg.PerKind)
	if err != nil {
		return nil, nil, err
	}
	net, err := models.BuildNetwork(model, cfg.Batch)
	if err != nil {
		return nil, nil, err
	}
	var out []TopologyResult
	tbl := report.NewTable(
		fmt.Sprintf("Topology sensitivity on %s (speedup vs DP per topology)", model),
		"topology", "DP time (s)", "OWT", "HyPar", "AccPar")
	for _, topo := range hardware.Topologies {
		plans, err := strategyPlans(context.TODO(), net, tree, nil, func(o *core.Options) { o.Topology = topo })
		if err != nil {
			return nil, nil, fmt.Errorf("eval: topology %v: %w", topo, err)
		}
		dp := plans[core.StrategyDP].Time()
		row := []string{topo.String(), fmt.Sprintf("%.4g", dp)}
		for _, s := range core.Strategies[1:] {
			t := plans[s].Time()
			sp := dp / t
			row = append(row, fmt.Sprintf("%.2f", sp))
			out = append(out, TopologyResult{Topology: topo, Model: model, Scheme: s, Time: t, Speedup: sp})
		}
		out = append(out, TopologyResult{Topology: topo, Model: model, Scheme: core.StrategyDP, Time: dp, Speedup: 1})
		tbl.AddRow(row...)
	}
	return out, tbl, nil
}

// BatchResult is one (batch, scheme) outcome.
type BatchResult struct {
	Batch   int
	Model   string
	Scheme  core.Strategy
	Time    float64
	Speedup float64
}

// BatchSweep evaluates speedups across mini-batch sizes on the
// heterogeneous array.
func BatchSweep(cfg Config, model string, batches []int) ([]BatchResult, *report.Table, error) {
	cfg = cfg.withDefaults()
	if len(batches) == 0 {
		batches = []int{64, 128, 256, 512, 1024}
	}
	tree, err := HeterogeneousTree(cfg.PerKind)
	if err != nil {
		return nil, nil, err
	}
	var out []BatchResult
	tbl := report.NewTable(
		fmt.Sprintf("Batch-size sweep on %s (speedup vs DP per batch)", model),
		"batch", "DP time (s)", "OWT", "HyPar", "AccPar")
	for _, b := range batches {
		net, err := models.BuildNetwork(model, b)
		if err != nil {
			return nil, nil, err
		}
		plans, err := strategyPlans(context.TODO(), net, tree, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("eval: batch %d: %w", b, err)
		}
		dp := plans[core.StrategyDP].Time()
		row := []string{fmt.Sprintf("%d", b), fmt.Sprintf("%.4g", dp)}
		for _, s := range core.Strategies[1:] {
			t := plans[s].Time()
			sp := dp / t
			row = append(row, fmt.Sprintf("%.2f", sp))
			out = append(out, BatchResult{Batch: b, Model: model, Scheme: s, Time: t, Speedup: sp})
		}
		out = append(out, BatchResult{Batch: b, Model: model, Scheme: core.StrategyDP, Time: dp, Speedup: 1})
		tbl.AddRow(row...)
	}
	return out, tbl, nil
}
