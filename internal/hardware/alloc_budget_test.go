//go:build !race

package hardware

import "testing"

// buildTreeAllocBudget pins the allocations of BuildTree on the
// 128×TPU-v2 + 128×TPU-v3 paper array, digest included: the node slab
// (each node holding its group), the root's member copy and the one
// member slice the heterogeneous top split fills. Measured at 3; 1,039
// when every node and every group was its own allocation and the
// heterogeneous split grew its halves by appends.
const buildTreeAllocBudget = 3

// TestBuildTreeAllocBudget fails when building a tree allocates per node
// again. The race detector's instrumentation allocates on its own, so
// the budget holds only in normal builds.
func TestBuildTreeAllocBudget(t *testing.T) {
	arr, err := NewHeterogeneous(GroupSpec{Spec: TPUv2(), Count: 128}, GroupSpec{Spec: TPUv3(), Count: 128})
	if err != nil {
		t.Fatal(err)
	}
	var buildErr error
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := BuildTree(arr, 64); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	t.Logf("%.0f allocs per BuildTree", allocs)
	if allocs > buildTreeAllocBudget {
		t.Errorf("BuildTree of 128+128 boards: %.0f allocs, budget %d", allocs, buildTreeAllocBudget)
	}
}
