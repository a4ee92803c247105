//go:build !race

package core

import (
	"testing"

	"accpar/internal/models"
)

// coldSearchAllocBudget bounds the allocations of one serial cold search
// of ResNet-50 (batch 512) on the 128+128 paper array — the
// BenchmarkPartitionHierarchical/serial setup.
const coldSearchAllocBudget = 50_000

// TestColdSearchAllocBudget fails on an allocation regression of the cold
// search hot path (the Eq. 9 DP scratch, tensor sizing, memo keys). The
// race detector's instrumentation allocates on its own, so the budget
// holds only in normal builds.
func TestColdSearchAllocBudget(t *testing.T) {
	net, err := models.BuildNetwork("resnet50", 512)
	if err != nil {
		t.Fatal(err)
	}
	tree := paperTree(t, 128)
	opt := AccPar()
	opt.Parallelism = 1
	var planErr error
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Partition(net, tree, opt); err != nil {
			planErr = err
		}
	})
	if planErr != nil {
		t.Fatal(planErr)
	}
	t.Logf("%.0f allocs per cold search", allocs)
	if allocs > coldSearchAllocBudget {
		t.Errorf("cold ResNet-50/512 search on 128+128 boards: %.0f allocs, budget %d", allocs, coldSearchAllocBudget)
	}
}
