//go:build !race

package sim

import (
	"context"
	"testing"

	"accpar/internal/core"
	"accpar/internal/hardware"
)

// simulateAllocBudget bounds the allocations of one simulated iteration
// of VGG-16 (batch 512) split between 128 TPU-v2 and 128 TPU-v3 boards at
// the root of its AccPar plan — the BenchmarkSimulatorVGG setup. Measured
// at 2, the result and the edge list: the task graph, the unit list and
// the work tables come from the pooled builder, and task names render
// only on errors; 75 when every layer's trace records were generated to
// be summed and the edge list was built one slice per path, 77 when
// validation and the builder each copied the network's unit list.
const simulateAllocBudget = 4

// TestSimulateAllocBudget fails on an allocation regression of the
// simulator's pooled builder. The race detector's instrumentation
// allocates on its own, so the budget holds only in normal builds.
func TestSimulateAllocBudget(t *testing.T) {
	net := netFor(t, "vgg16", 512)
	const boards = 128
	specs := [2]hardware.Spec{hardware.TPUv2(), hardware.TPUv3()}
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: specs[0], Count: boards},
		hardware.GroupSpec{Spec: specs[1], Count: boards})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.PartitionCtx(context.Background(), net, tree, core.StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	split := Split{Net: net, Types: plan.Root.Types, Alpha: plan.Root.Alpha}
	var machines [2]Machine
	for i, spec := range specs {
		machines[i] = machineFor(spec)
		machines[i].Compute *= boards
		machines[i].MemBW *= boards
		machines[i].NetBW *= boards
		machines[i].HBMBytes *= boards
	}
	var simErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Simulate(split, machines, Config{}); err != nil {
			simErr = err
		}
	})
	if simErr != nil {
		t.Fatal(simErr)
	}
	t.Logf("%.0f allocs per simulated iteration", allocs)
	if allocs > simulateAllocBudget {
		t.Errorf("vgg16/512 on 128+128 boards: %.0f allocs per simulated iteration, budget %d", allocs, simulateAllocBudget)
	}
}
