package eval

import (
	"strings"
	"testing"

	"accpar/internal/core"
	"accpar/internal/hardware"
)

func TestTopologySweep(t *testing.T) {
	results, tbl, err := TopologySweep(smallCfg(), "alexnet")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(hardware.Topologies)*len(core.Strategies) {
		t.Fatalf("results = %d", len(results))
	}
	byTopo := map[hardware.Topology]map[core.Strategy]TopologyResult{}
	for _, r := range results {
		if byTopo[r.Topology] == nil {
			byTopo[r.Topology] = map[core.Strategy]TopologyResult{}
		}
		byTopo[r.Topology][r.Scheme] = r
	}
	for topo, rs := range byTopo {
		// AccPar dominates under every topology.
		for _, s := range []core.Strategy{core.StrategyDP, core.StrategyOWT, core.StrategyHyPar} {
			if rs[core.StrategyAccPar].Time > rs[s].Time*(1+1e-9) {
				t.Errorf("%v: AccPar %.4g slower than %v %.4g", topo, rs[core.StrategyAccPar].Time, s, rs[s].Time)
			}
		}
	}
	// Worse interconnects slow everything: DP time under ring exceeds DP
	// time under full bisection.
	if byTopo[hardware.Ring][core.StrategyDP].Time <= byTopo[hardware.FullBisection][core.StrategyDP].Time {
		t.Error("ring must be slower than full bisection for data parallelism")
	}
	if !strings.Contains(tbl.String(), "ring") {
		t.Error("table missing ring row")
	}
}

func TestBatchSweep(t *testing.T) {
	results, tbl, err := BatchSweep(smallCfg(), "vgg11", []int{32, 128})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(core.Strategies) {
		t.Fatalf("results = %d", len(results))
	}
	var dp32, dp128 float64
	for _, r := range results {
		if r.Scheme == core.StrategyDP && r.Batch == 32 {
			dp32 = r.Time
		}
		if r.Scheme == core.StrategyDP && r.Batch == 128 {
			dp128 = r.Time
		}
		if r.Scheme == core.StrategyAccPar && r.Speedup < 1-1e-9 {
			t.Errorf("batch %d: AccPar speedup %.3f below 1", r.Batch, r.Speedup)
		}
	}
	// A larger batch takes longer per iteration for the same scheme.
	if dp128 <= dp32 {
		t.Errorf("DP time must grow with batch: %g vs %g", dp32, dp128)
	}
	if !strings.Contains(tbl.String(), "128") {
		t.Error("table missing batch row")
	}
}
