//go:build !race

package hardware

import (
	"runtime"
	"testing"
)

// buildTreeAllocBudget pins the allocations of BuildTree on the
// 128×TPU-v2 + 128×TPU-v3 paper array, digest included: the node slab,
// each node holding its group, a view of the array's own run list.
// Measured at 1; 2 when every build run-length encoded the array's
// boards again, and 1,039 when every node and every group was its own
// allocation and the split grew its halves by appends.
const buildTreeAllocBudget = 1

// buildTreeBytesBudget bounds the bytes BuildTree allocates on the same
// array. Twin halves are one node, so the 511 positions take 17 slab
// entries: measured at 3,200 bytes (Go 1.24, amd64), 3,488 with a run
// list of its own, and 70,912 with one entry per position.
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
// into one run, and the tree has 21 nodes. Measured at 144 and 148
// bytes per board at 1 and 64 levels, almost all of it the first
// split's run list (Go 1.24, amd64); 216 and 220 when every build
// run-length encoded the array's boards again, 304 at 64 levels with one
// slab entry per position, and 2,265 with a slab sized by the root's run
// count times the depth.
const interleavedBytesPerBoard = 160

// TestBuildTreeInterleavedBytes fails when the node slab of a fleet of
// many short runs is sized by its runs rather than its nodes, whatever
// the level budget.
func TestBuildTreeInterleavedBytes(t *testing.T) {
	groups := make([]GroupSpec, 1024)
	for i := range groups {
		groups[i] = GroupSpec{[]Spec{TPUv2(), TPUv3()}[i%2], 1}
	}
	arr, err := NewHeterogeneous(groups...)
	if err != nil {
		t.Fatal(err)
	}
	for _, levels := range []int{1, 64} {
		perBoard := buildTreeBytes(t, arr, levels) / uint64(len(groups))
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
// on the 128×TPU-v2 + 128×TPU-v3 paper array: the array, its run list
// (one run per group), and its name string, built in a stack buffer.
// Measured at 3; 8 when the name was a list of fmt.Sprintf results and
// their strings.Join, and 17 when the member slice grew board by board.
// The budget is the measure, so a run list that grows by even one append
// fails it.
const newHeterogeneousAllocBudget = 3

// TestNewHeterogeneousAllocBudget fails when building an array allocates
// per board.
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
