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

// pointOrder is the order a sweep lists one point's schemes in: the
// three that are measured against DP, then DP itself.
var pointOrder = []core.Strategy{core.StrategyOWT, core.StrategyHyPar, core.StrategyAccPar, core.StrategyDP}

// row is a sweep table's row for r: its label, DP's time and the other
// schemes' speedups over DP.
func (r ModelResult) row() []string {
	row := []string{r.Model, fmt.Sprintf("%.4g", r.Time[core.StrategyDP])}
	for _, s := range core.Strategies[1:] {
		row = append(row, fmt.Sprintf("%.2f", r.Speedup[s]))
	}
	return row
}

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
		r, err := measure(context.TODO(), topo.String(), net, tree, nil, func(o *core.Options) { o.Topology = topo })
		if err != nil {
			return nil, nil, fmt.Errorf("eval: topology %v: %w", topo, err)
		}
		for _, s := range pointOrder {
			out = append(out, TopologyResult{Topology: topo, Model: model, Scheme: s, Time: r.Time[s], Speedup: r.Speedup[s]})
		}
		tbl.AddRow(r.row()...)
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
		r, err := measure(context.TODO(), fmt.Sprintf("%d", b), net, tree, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("eval: batch %d: %w", b, err)
		}
		for _, s := range pointOrder {
			out = append(out, BatchResult{Batch: b, Model: model, Scheme: s, Time: r.Time[s], Speedup: r.Speedup[s]})
		}
		tbl.AddRow(r.row()...)
	}
	return out, tbl, nil
}
