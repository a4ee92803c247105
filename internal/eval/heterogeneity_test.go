package eval

import (
	"strings"
	"testing"

	"accpar/internal/core"
)

func TestHeterogeneitySweep(t *testing.T) {
	results, tbl, err := HeterogeneitySweep(smallCfg(), "resnet18", 8)
	if err != nil {
		t.Fatal(err)
	}
	// 5 fleet points × 4 schemes.
	if len(results) != 20 {
		t.Fatalf("results = %d, want 20", len(results))
	}
	byFleet := map[int]map[core.Strategy]HeterogeneityResult{}
	for _, r := range results {
		if byFleet[r.V3] == nil {
			byFleet[r.V3] = map[core.Strategy]HeterogeneityResult{}
		}
		byFleet[r.V3][r.Scheme] = r
	}
	// AccPar dominates at every composition.
	for v3, rs := range byFleet {
		for _, s := range []core.Strategy{core.StrategyDP, core.StrategyOWT, core.StrategyHyPar} {
			if rs[core.StrategyAccPar].Time > rs[s].Time*(1+1e-9) {
				t.Errorf("fleet v3=%d: AccPar %.4g slower than %v %.4g", v3, rs[core.StrategyAccPar].Time, s, rs[s].Time)
			}
		}
	}
	// The absolute DP time improves as slow boards are swapped for fast
	// ones... not necessarily monotonically (comm ratios shift), but the
	// all-v3 fleet must beat the all-v2 fleet under AccPar.
	if byFleet[8][core.StrategyAccPar].Time >= byFleet[0][core.StrategyAccPar].Time {
		t.Errorf("all-v3 AccPar %.4g not faster than all-v2 %.4g",
			byFleet[8][core.StrategyAccPar].Time, byFleet[0][core.StrategyAccPar].Time)
	}
	// The mixed fleet is where AccPar's margin over HyPar peaks relative to
	// the homogeneous endpoints.
	margin := func(v3 int) float64 {
		return byFleet[v3][core.StrategyHyPar].Time / byFleet[v3][core.StrategyAccPar].Time
	}
	mid := margin(4)
	if mid < margin(0)*(1-1e-9) && mid < margin(8)*(1-1e-9) {
		t.Errorf("mixed-fleet AccPar/HyPar margin %.3f below both endpoints (%.3f, %.3f)",
			mid, margin(0), margin(8))
	}
	if !strings.Contains(tbl.String(), "4×v2+4×v3") {
		t.Error("table missing mixed-fleet row")
	}
	if _, _, err := HeterogeneitySweep(smallCfg(), "resnet18", 3); err == nil {
		t.Error("odd board count must be rejected")
	}
}
