package eval

import (
	"context"
	"fmt"

	"accpar/internal/core"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/report"
)

// HeterogeneityResult is one point of the fleet-composition sweep.
type HeterogeneityResult struct {
	V2, V3  int
	Scheme  core.Strategy
	Time    float64
	Speedup float64 // vs DP on the same fleet
}

// HeterogeneitySweep varies the fleet composition from all-TPU-v2 to
// all-TPU-v3 at constant board count, quantifying how AccPar's advantage
// over the equal-split schemes grows with heterogeneity — the paper's
// central motivation (Section 2.3: "it is more important to explore
// solutions for an array of heterogeneous accelerators"). The advantage
// must vanish at both homogeneous endpoints' ratio component and peak in
// between.
func HeterogeneitySweep(cfg Config, model string, boards int) ([]HeterogeneityResult, *report.Table, error) {
	cfg = cfg.withDefaults()
	if boards < 2 || boards%2 != 0 {
		return nil, nil, fmt.Errorf("eval: boards must be even and ≥ 2, got %d", boards)
	}
	net, err := models.BuildNetwork(model, cfg.Batch)
	if err != nil {
		return nil, nil, err
	}
	var out []HeterogeneityResult
	tbl := report.NewTable(
		fmt.Sprintf("Fleet-composition sweep on %s (%d boards; speedup vs DP per fleet)", model, boards),
		"fleet", "DP time (s)", "OWT", "HyPar", "AccPar")

	step := boards / 4
	if step == 0 {
		step = 1
	}
	for v3 := 0; v3 <= boards; v3 += step {
		v2 := boards - v3
		var arr *hardware.Array
		switch {
		case v2 == 0:
			arr, err = hardware.NewHomogeneous(hardware.TPUv3(), v3)
		case v3 == 0:
			arr, err = hardware.NewHomogeneous(hardware.TPUv2(), v2)
		default:
			arr, err = hardware.NewHeterogeneous(
				hardware.GroupSpec{Spec: hardware.TPUv2(), Count: v2},
				hardware.GroupSpec{Spec: hardware.TPUv3(), Count: v3})
		}
		if err != nil {
			return nil, nil, err
		}
		tree, err := hardware.BuildTree(arr, 64)
		if err != nil {
			return nil, nil, err
		}
		r, err := measure(context.TODO(), fmt.Sprintf("%d×v2+%d×v3", v2, v3), net, tree, nil, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("eval: fleet %d+%d: %w", v2, v3, err)
		}
		for _, s := range pointOrder {
			out = append(out, HeterogeneityResult{V2: v2, V3: v3, Scheme: s, Time: r.Time[s], Speedup: r.Speedup[s]})
		}
		tbl.AddRow(r.row()...)
	}
	return out, tbl, nil
}
