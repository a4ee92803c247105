//go:build !race

package accpar

import (
	"runtime"
	"testing"
)

// sessionResilienceAllocBudget bounds the allocations of one resilience
// run of a never-seen fault through a Session whose plan cache is full:
// inception/512 on 64+64 boards, AccPar portfolio, pristine and degraded
// searches plus three simulations. Measured at 482; 1.04k when every child
// subproblem the search missed scaled its dims into a fresh slice, every
// serial split moved its results to the heap for a fork it did not take,
// and every simulation generated each layer's trace records to sum them;
// 1.31k when every fleet's tree held one node per position and every
// solved subproblem formatted its group's description anew; 1.45k when
// identical halves were split off 0.5 and solved twice, 2.0k when the plan
// cache interned hardware trees built with one allocation per node and per
// group (2.5k with no interner), 2.3k when every search rebuilt its units,
// segment index and level-context pool, 3.0k on per-network replan
// engines, each search building one slice per multi-path segment path;
// 5.0k when every trace record slice grew by appends and every simulated
// phase copied out its trace records, 10.2k when every memo hit
// deep-copied the solved subtree, 12.2k with per-split level contexts and
// heap-built memo keys, and 18.6k when every subproblem a replan expanded
// was written both into a per-network replan memo and into the session's
// plan cache.
const sessionResilienceAllocBudget = 540

// sessionResilienceByteBudget bounds the bytes the same runs allocate.
// Measured at 73–75 KB; 390–413 KB with fresh child-dims slices and
// generated trace records.
const sessionResilienceByteBudget = 100_000

// resilienceBudgetCacheEntries bounds the budget session's cache: the
// warm-up overfills it, so the measured runs trim it.
const resilienceBudgetCacheEntries = 4096

// TestSessionResilienceAllocBudget fails when the replan path picks up a
// second store again, such as mirroring each subproblem it expands into
// another memo beside the session's plan cache, or when the search or the
// simulator starts building per-subproblem or per-layer garbage again:
// it bounds both the allocations and the bytes of a run.
func TestSessionResilienceAllocBudget(t *testing.T) {
	net, err := BuildModel("inception", 512)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3ResilienceGroups(64)
	fault := func(i int) FaultScenario {
		return FaultScenario{Seed: int64(i), Faults: []Fault{{Kind: FaultSlowdown, Group: i % 2, Factor: 1.1 + 0.05*float64(i)}}}
	}
	sess := NewSession(resilienceBudgetCacheEntries)
	var runErr error
	resilience := func(i int) {
		if _, err := sess.Resilience(net, groups, StrategyAccPar, fault(i), SimConfig{}); err != nil {
			runErr = err
		}
	}
	// Overfill the cache, so the measured faults run on a full one.
	const warmUp, runs = 40, 4
	for i := 0; i < warmUp; i++ {
		resilience(i)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if sess.CacheStats().Evictions == 0 {
		t.Fatalf("warm-up did not fill the %d-entry cache: %+v", resilienceBudgetCacheEntries, sess.CacheStats())
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
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		resilience(next)
		next++
	}
	runtime.ReadMemStats(&after)
	if runErr != nil {
		t.Fatal(runErr)
	}
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d bytes per resilience run", bytes)
	if bytes > sessionResilienceByteBudget {
		t.Errorf("resilience run of inception/512 on 64+64 boards through a full session: %d bytes, budget %d", bytes, sessionResilienceByteBudget)
	}
}
