//go:build !race

package dse

import (
	"context"
	"testing"
)

// sweepAllocBudget bounds the allocations of one fresh sweep of the
// dse-sweep grid (benchSpace, benchConfig). Measured at 10.3k; 12.0k when
// every child subproblem a search missed scaled its dims into a fresh
// slice and every serial split moved its results to the heap for a fork it
// did not take; 14.7k when every candidate's tree held one node per
// position and every solved subproblem formatted its group's description
// anew; 18.2k when identical halves were split off 0.5 and solved twice,
// 23.5k (23.2k on the per-variant batch engines the sweep's plan cache
// replaced); 25.0k when a memo hit solved at another depth was copied to
// relabel its level, 29.5k when every memo hit deep-copied the solved
// subtree, and 48.3k when every split built its own level context and
// every memo key and child-dims slice was allocated.
const sweepAllocBudget = 11_500

// TestSweepAllocBudget fails on an allocation regression of the cached
// searches a sweep runs: thousands of splits, most of them memo hits. The
// race detector's instrumentation allocates on its own, so the budget
// holds only in normal builds.
func TestSweepAllocBudget(t *testing.T) {
	space, cfg := benchSpace(), benchConfig()
	var sweepErr error
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Sweep(context.Background(), space, cfg); err != nil {
			sweepErr = err
		}
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	t.Logf("%.0f allocs per sweep", allocs)
	if allocs > sweepAllocBudget {
		t.Errorf("dse-sweep grid (ResNet-50/512, 80 candidates): %.0f allocs, budget %d", allocs, sweepAllocBudget)
	}
}
