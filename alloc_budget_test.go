//go:build !race

package accpar

import (
	"testing"
)

// sessionResilienceAllocBudget bounds the allocations of one resilience
// run of a never-seen fault through a Session whose replan engines'
// working sets are full: inception/512 on 64+64 boards, AccPar portfolio,
// pristine and degraded searches plus three simulations. Measured at
// 3.0k; 5.0k when every trace record slice grew by appends and every
// simulated phase copied out its trace records, 10.2k when every memo hit
// deep-copied the solved subtree, 12.2k with per-split level contexts
// and heap-built memo keys, and 18.6k when every subproblem a replan
// engine expanded was also written into the session's plan cache.
const sessionResilienceAllocBudget = 3_600

// TestSessionResilienceAllocBudget fails when the replan path picks up a
// second store again, such as mirroring each subproblem an engine expands
// into the session's plan cache.
func TestSessionResilienceAllocBudget(t *testing.T) {
	net, err := BuildModel("inception", 512)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3ResilienceGroups(64)
	fault := func(i int) FaultScenario {
		return FaultScenario{Seed: int64(i), Faults: []Fault{{Kind: FaultSlowdown, Group: i % 2, Factor: 1.1 + 0.05*float64(i)}}}
	}
	sess := NewSession(0)
	var runErr error
	resilience := func(i int) {
		if _, err := sess.Resilience(net, groups, StrategyAccPar, fault(i), SimConfig{}); err != nil {
			runErr = err
		}
	}
	// Overfill the engines' 32-tree working sets, so every measured fault
	// evicts.
	const warmUp, runs = 40, 4
	for i := 0; i < warmUp; i++ {
		resilience(i)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	next := warmUp
	allocs := testing.AllocsPerRun(runs, func() {
		resilience(next)
		next++
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	t.Logf("%.0f allocs per resilience run", allocs)
	if allocs > sessionResilienceAllocBudget {
		t.Errorf("resilience run of inception/512 on 64+64 boards through a full session: %.0f allocs, budget %d", allocs, sessionResilienceAllocBudget)
	}
}
