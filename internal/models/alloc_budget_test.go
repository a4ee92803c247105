//go:build !race

package models

import "testing"

// buildNetworkAllocBudget pins the allocations of BuildNetwork on
// ResNet-50 at batch 512 once its template exists: the network, its
// segment slice, its unit slab and its chain slab. Measured at 4; 655
// on average over the zoo when every call built and extracted a graph.
const buildNetworkAllocBudget = 5

// TestBuildNetworkAllocBudget fails when a network request builds a
// graph, or allocates per unit, again. The race detector's
// instrumentation allocates on its own, so the budget holds only in
// normal builds.
func TestBuildNetworkAllocBudget(t *testing.T) {
	if _, err := BuildNetwork("resnet50", 512); err != nil {
		t.Fatal(err)
	}
	var buildErr error
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := BuildNetwork("resnet50", 512); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	t.Logf("%.0f allocs per BuildNetwork", allocs)
	if allocs > buildNetworkAllocBudget {
		t.Errorf("BuildNetwork(resnet50, 512): %.0f allocs, budget %d", allocs, buildNetworkAllocBudget)
	}
}
