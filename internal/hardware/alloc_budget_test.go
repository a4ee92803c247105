//go:build !race

package hardware

import (
	"runtime"
	"testing"
)

// buildTreeAllocBudget pins the allocations of BuildTree on the
// 128×TPU-v2 + 128×TPU-v3 paper array, digest included: the node slab
// (each node holding its group) and the array's run list, of which every
// group is a view. Measured at 2; 1,039 when every node and every group
// was its own allocation and the split grew its halves by appends.
const buildTreeAllocBudget = 2

// buildTreeBytesBudget bounds the bytes BuildTree allocates on the same
// array. Twin halves are one node, so the 511 positions take 17 slab
// entries: measured at 3,488 bytes (Go 1.24, amd64), where one entry per
// position took 70,912.
const buildTreeBytesBudget = 4 << 10

// TestBuildTreeAllocBudget fails when building a tree allocates per node
// again, or per position. The race detector's instrumentation allocates
// on its own, so the budget holds only in normal builds.
func TestBuildTreeAllocBudget(t *testing.T) {
	arr, err := NewHeterogeneous(GroupSpec{Spec: TPUv2(), Count: 128}, GroupSpec{Spec: TPUv3(), Count: 128})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := BuildTree(arr, 64); err != nil {
			t.Fatal(err)
		}
	})
	bytes := buildTreeBytes(t, arr, 64)
	t.Logf("%.0f allocs, %d bytes per BuildTree", allocs, bytes)
	if allocs > buildTreeAllocBudget {
		t.Errorf("BuildTree of 128+128 boards: %.0f allocs, budget %d", allocs, buildTreeAllocBudget)
	}
	if bytes > buildTreeBytesBudget {
		t.Errorf("BuildTree of 128+128 boards: %d bytes, budget %d", bytes, buildTreeBytesBudget)
	}
}

// interleavedBytesPerBoard bounds the bytes per board BuildTree
// allocates on 512 TPU-v2 and 512 TPU-v3 boards that alternate, so the
// array is 1,024 runs of one board. Its first split gathers each kind
// into one run, and the tree has 21 nodes. Measured at 216 and 220
// bytes per board at 1 and 64 levels, almost all of it run lists (Go
// 1.24, amd64); one slab entry per position took 304 at 64 levels, and
// a slab sized by the root's run count times the depth took 2,265.
const interleavedBytesPerBoard = 256

// TestBuildTreeInterleavedBytes fails when the node slab of a fleet of
// many short runs is sized by its runs rather than its nodes, whatever
// the level budget.
func TestBuildTreeInterleavedBytes(t *testing.T) {
	accel := make([]Spec, 1024)
	for i := range accel {
		accel[i] = []Spec{TPUv2(), TPUv3()}[i%2]
	}
	arr := &Array{Accel: accel}
	for _, levels := range []int{1, 64} {
		perBoard := buildTreeBytes(t, arr, levels) / uint64(len(accel))
		t.Logf("%d levels: %d bytes per board", levels, perBoard)
		if perBoard > interleavedBytesPerBoard {
			t.Errorf("BuildTree of 512+512 interleaved boards, %d levels: %d bytes per board, budget %d", levels, perBoard, interleavedBytesPerBoard)
		}
	}
}

// buildTreeBytes returns the bytes one BuildTree of arr allocates, on
// average over 100 builds.
func buildTreeBytes(t *testing.T, arr *Array, levels int) uint64 {
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if _, err := BuildTree(arr, levels); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
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
