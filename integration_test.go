package accpar

// Randomized end-to-end integration tests: synthetic series-parallel
// workloads flow through extraction, all four strategies' searches, plan
// validation, memory accounting, JSON serialization and the trace-driven
// simulator, with the cross-module invariants checked on every one.

import (
	"bytes"
	"math"
	"testing"

	"accpar/internal/core"
	"accpar/internal/dnn"
	"accpar/internal/sim"
	"accpar/internal/workload"
)

func TestSyntheticWorkloadsEndToEnd(t *testing.T) {
	arr, err := HeterogeneousArray(ArrayGroup{Spec: TPUv2(), Count: 4}, ArrayGroup{Spec: TPUv3(), Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	seeds := 25
	if testing.Short() {
		seeds = 6
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		net, err := workload.GenerateNetwork(seed, workload.Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		plans := map[Strategy]*Plan{}
		for _, s := range Strategies {
			plan, err := Partition(net, arr, s)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, s, err)
			}
			if err := plan.Validate(); err != nil {
				t.Fatalf("seed %d %v: %v", seed, s, err)
			}
			tm := plan.Time()
			if !(tm > 0) || math.IsInf(tm, 0) || math.IsNaN(tm) {
				t.Fatalf("seed %d %v: time %g", seed, s, tm)
			}
			plans[s] = plan
		}

		// The containment invariant: AccPar never loses to any baseline.
		for _, s := range []Strategy{StrategyDP, StrategyOWT, StrategyHyPar} {
			if plans[StrategyAccPar].Time() > plans[s].Time()*(1+1e-9) {
				t.Errorf("seed %d: AccPar %.6g slower than %v %.6g",
					seed, plans[StrategyAccPar].Time(), s, plans[s].Time())
			}
		}

		// Memory accounting is well-formed.
		rep := plans[StrategyAccPar].Memory()
		if rep.Leaves == 0 || rep.PeakResidencyBytes <= 0 {
			t.Errorf("seed %d: malformed memory report %+v", seed, rep)
		}

		// JSON round trip preserves the root decision.
		var buf bytes.Buffer
		if err := plans[StrategyAccPar].WriteJSON(&buf); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		decoded, err := ReadPlanJSON(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if decoded.TimeSec != plans[StrategyAccPar].Time() {
			t.Errorf("seed %d: JSON time mismatch", seed)
		}

		// The simulator accepts the root-split decision.
		root := plans[StrategyAccPar].Root
		alpha := root.Alpha
		if alpha <= 0 || alpha >= 1 {
			t.Fatalf("seed %d: root alpha %g", seed, alpha)
		}
		res, err := Simulate(net, root.Types, alpha,
			GroupMachine(TPUv2(), 4), GroupMachine(TPUv3(), 4), SimConfig{})
		if err != nil {
			t.Fatalf("seed %d sim: %v", seed, err)
		}
		if !(res.Time > 0) {
			t.Errorf("seed %d: sim time %g", seed, res.Time)
		}
	}
}

// TestSyntheticWorkloadsDPOptimality: on every small synthetic workload,
// the production portfolio never loses to the single full-space DP pass
// through the whole hierarchy. Core's TestExhaustiveMatchesDPFullHierarchy
// certifies that pass optimal at every split on the same seeds and array.
func TestSyntheticWorkloadsDPOptimality(t *testing.T) {
	arr, err := HeterogeneousArray(ArrayGroup{Spec: TPUv2(), Count: 2}, ArrayGroup{Spec: TPUv3(), Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.Config{MinLayers: 3, MaxLayers: 7}
	seeds := 10
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(100); seed < int64(100+seeds); seed++ {
		net, err := workload.GenerateNetwork(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		portfolio, err := Partition(net, arr, StrategyAccPar)
		if err != nil {
			t.Fatal(err)
		}
		single, err := PartitionWithOptions(net, arr, core.AccPar(), 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []*Plan{portfolio, single} {
			if err := p.Validate(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		if portfolio.Time() > single.Time()*(1+1e-9) {
			t.Errorf("seed %d: portfolio %.6g worse than the single full-space pass %.6g",
				seed, portfolio.Time(), single.Time())
		}
	}
}

// TestSimAgreesWithAnalyticOrdering: across synthetic workloads, when the
// analytic model says one uniform type assignment beats another by a wide
// margin (>2×) at a two-machine split, the trace-driven simulator agrees
// on the direction — the two performance models never contradict each
// other strongly.
func TestSimAgreesWithAnalyticOrdering(t *testing.T) {
	machines := [2]sim.Machine{MachineFor(TPUv2()), MachineFor(TPUv3())}
	arr, err := HeterogeneousArray(ArrayGroup{Spec: TPUv2(), Count: 1}, ArrayGroup{Spec: TPUv3(), Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	uniform := []PartitionType{TypeI, TypeII, TypeIII}
	for seed := int64(200); seed < 212; seed++ {
		net, err := workload.GenerateNetwork(seed, workload.Config{})
		if err != nil {
			t.Fatal(err)
		}
		analytic := map[PartitionType]float64{}
		simulated := map[PartitionType]float64{}
		for _, ty := range uniform {
			ty := ty
			opt := core.AccPar()
			opt.Ratio = core.RatioEqual
			opt.Fixed = func(l dnn.WeightedLayer) (PartitionType, bool) { return ty, true }
			plan, err := PartitionWithOptions(net, arr, opt, 64)
			if err != nil {
				t.Fatal(err)
			}
			analytic[ty] = plan.Time()
			types := make([]PartitionType, len(net.Units()))
			for i := range types {
				types[i] = ty
			}
			res, err := sim.Simulate(sim.Split{Net: net, Types: types, Alpha: 0.5}, machines, sim.Config{})
			if err != nil {
				t.Fatal(err)
			}
			simulated[ty] = res.Time
		}
		for _, a := range uniform {
			for _, b := range uniform {
				if analytic[a] > 2*analytic[b] && simulated[a] < simulated[b] {
					t.Errorf("seed %d: analytic says %v ≫ %v (%.4g vs %.4g) but sim inverts (%.4g vs %.4g)",
						seed, a, b, analytic[a], analytic[b], simulated[a], simulated[b])
				}
			}
		}
	}
}
