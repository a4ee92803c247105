//go:build !race

package hardware

import "testing"

// buildTreeAllocBudget pins the allocations of BuildTree on the
// 128×TPU-v2 + 128×TPU-v3 paper array, digest included: the node slab
// (each node holding its group) and the root's member copy. The
// heterogeneous top split returns views of the root's members, as every
// split below it does. Measured at 2; 3 when the top split copied its
// members into a new slice, and 1,039 when every node and every group
// was its own allocation and the split grew its halves by appends.
const buildTreeAllocBudget = 2

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

// newHeterogeneousAllocBudget pins the allocations of NewHeterogeneous
// on the 128×TPU-v2 + 128×TPU-v3 paper array: the array, its one member
// slice, and its name (the list of group names, each group's formatted
// count and name, and their join). Measured at 8; 17 when the member
// slice grew board by board. The budget is the measure, so a member
// slice that grows by even one append again fails it.
const newHeterogeneousAllocBudget = 8

// TestNewHeterogeneousAllocBudget fails when the member slice grows by
// appends again, whose allocations scale with the board count.
func TestNewHeterogeneousAllocBudget(t *testing.T) {
	var buildErr error
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewHeterogeneous(GroupSpec{Spec: TPUv2(), Count: 128}, GroupSpec{Spec: TPUv3(), Count: 128}); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	t.Logf("%.0f allocs per NewHeterogeneous", allocs)
	if allocs > newHeterogeneousAllocBudget {
		t.Errorf("NewHeterogeneous of 128+128 boards: %.0f allocs, budget %d", allocs, newHeterogeneousAllocBudget)
	}
}
