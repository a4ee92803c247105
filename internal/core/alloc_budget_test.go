//go:build !race

package core

import (
	"context"
	"math"
	"runtime"
	"testing"

	"accpar/internal/hardware"
	"accpar/internal/models"
)

// coldSearchAllocBudget bounds the allocations of one serial cold search
// of ResNet-50 (batch 512) on the 128+128 paper array — the
// BenchmarkPartitionHierarchical/serial setup — and of VGG-16 (batch 512)
// on the same array. Measured at 118 for both; 129 (up to 131 over
// repeated runs) when every serial split moved its results to the heap
// for a fork it did not take and every missed child scaled its dims into
// a fresh slice; 143 when every split ran its DP twice, the second run confirming
// types whose ratio had not moved; 183 when every solved subproblem
// formatted its group's description anew; ResNet-50 took 1.6k when the
// Eq. 10 bisection missed a falling balance and split identical halves at
// 1/4096 or a few ulps off 0.5, so they were solved twice; 2.0k when
// every memo hit deep-copied the solved subtree, and 4.1k when every
// split built its own level context and every memo key and child-dims
// slice was allocated.
const coldSearchAllocBudget = 124

// memoryRejectAllocOverhead and memoryRejectAllocSlack bound a serial
// ResNet-50 search under MemoryReject, which the paper array's
// capacities never bind, against the same search with MemoryOff: at most
// 3% more allocations plus a few. Measured at 118 for both. The
// constrained search tries the exact unconstrained solve first at every
// split, so it also expands exactly the same subproblems.
const (
	memoryRejectAllocOverhead = 0.03
	memoryRejectAllocSlack    = 4
)

// coldSearchAllocs returns the allocations of one serial cold search of
// model (batch 512) on the 128+128 paper array under the given memory
// mode, and the subproblems that search expands. It fails the test when
// the allocations exceed coldSearchAllocBudget.
func coldSearchAllocs(t *testing.T, model string, mode MemoryMode) (float64, int64) {
	t.Helper()
	net, err := models.BuildNetwork(model, 512)
	if err != nil {
		t.Fatal(err)
	}
	tree := paperTree(t, 128)
	ctx := context.Background()
	opt := AccPar()
	opt.Parallelism = 1
	opt.MemoryLimit = mode
	_, st, err := PartitionStatsCtx(ctx, net, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	var planErr error
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := PartitionCtx(ctx, net, tree, opt); err != nil {
			planErr = err
		}
	})
	if planErr != nil {
		t.Fatal(planErr)
	}
	t.Logf("%s/512, memory %v: %.0f allocs, %d subproblems expanded per cold search", model, mode, allocs, st.Expanded)
	if allocs > coldSearchAllocBudget {
		t.Errorf("cold %s/512 search on 128+128 boards: %.0f allocs, budget %d", model, allocs, coldSearchAllocBudget)
	}
	return allocs, st.Expanded
}

// TestColdSearchAllocBudget fails on an allocation regression of the cold
// search hot path (pooled level contexts and DP scratch, allocation-free
// memo keys, child dims built only on a miss), and, in its memory-reject
// case, when a memory constraint that never binds costs more than its
// bookkeeping. The race detector's instrumentation allocates on its own,
// so the budget holds only in normal builds.
func TestColdSearchAllocBudget(t *testing.T) {
	for _, model := range []string{"resnet50", "vgg16"} {
		t.Run(model, func(t *testing.T) { coldSearchAllocs(t, model, MemoryOff) })
	}
	t.Run("memory-reject", func(t *testing.T) {
		offAllocs, offExpanded := coldSearchAllocs(t, "resnet50", MemoryOff)
		rejectAllocs, rejectExpanded := coldSearchAllocs(t, "resnet50", MemoryReject)
		if rejectExpanded != offExpanded {
			t.Errorf("non-binding MemoryReject expanded %d subproblems, MemoryOff %d", rejectExpanded, offExpanded)
		}
		if limit := offAllocs*(1+memoryRejectAllocOverhead) + memoryRejectAllocSlack; rejectAllocs > limit {
			t.Errorf("non-binding MemoryReject: %.0f allocs against %.0f with MemoryOff, limit %.0f", rejectAllocs, offAllocs, limit)
		}
	})
}

// replanAllocBudget bounds the allocations of one steady-state replan:
// the nine-variant AccPar portfolio partitioning the pristine 16+16 fleet
// (a recurrent root hit) and a never-seen degraded one on a full shared
// cache, so the measured replans trim it. Measured at 309; 425 when every
// missed child scaled its dims into a fresh slice and every serial split
// moved its results to the heap for a fork it did not take; 613 when
// every fleet's tree held one node per position and every solved
// subproblem formatted its group's description anew; 797 when
// identical halves were split off 0.5 and solved twice, 1.2k when
// every search rebuilt its units, segment index and level-context pool
// instead of reusing its cache entry's search shape, 1.6k on
// per-network replan engines that kept their own memos, each search
// building one slice per multi-path segment path; 3.1k when every memo
// hit deep-copied the solved subtree and every engine lookup built a
// throwaway engine, 4.5k with per-split level contexts and heap-built
// memo keys, and 14.7k when every eviction re-digested a whole working
// set of trees into an index.
const replanAllocBudget = 350

// replanBudgetCacheEntries bounds the steady-state replan's cache: the
// warm-up overfills it, so the measured replans run on a full cache and
// its trims.
const replanBudgetCacheEntries = 2048

// TestSearchAllocsIndependentOfParallelism: one request runs on its
// caller's goroutine at any Parallelism, so each of these allocates at
// Parallelism 4 exactly what it does at 1 on an interleaved fleet, whose
// root splits unequal halves (64 TPU-v2 against 64 TPU-v3 boards): one
// option set's search, the AccPar portfolio with Parallelism on every
// variant, and a replan after a slowdown of a TPU-v3 group. A search,
// variant or replan pass that ran on another goroutine would show here as
// the goroutines, their closures, a channel and an error slice. Calls are
// counted at GOMAXPROCS 2 (allocsAt), so that a pool sized from
// GOMAXPROCS would start more than one worker.
func TestSearchAllocsIndependentOfParallelism(t *testing.T) {
	net, err := models.BuildNetwork("resnet50", 512)
	if err != nil {
		t.Fatal(err)
	}
	v2, v3 := hardware.TPUv2(), hardware.TPUv3()
	groups := []hardware.GroupSpec{{Spec: v2, Count: 32}, {Spec: v3, Count: 32}, {Spec: v2, Count: 32}, {Spec: v3, Count: 32}}
	tree := treeFor(t, groups...)
	degraded := slowdownTree(t, groups, 1, 2)
	ctx := context.Background()
	for _, c := range []struct {
		name string
		run  func(par int) error
	}{
		{"search", func(par int) error {
			opt := AccPar()
			opt.Parallelism = par
			_, err := PartitionCtx(ctx, net, tree, opt)
			return err
		}},
		{"portfolio", func(par int) error {
			_, err := PartitionCtx(ctx, net, tree, portfolioAt(par)...)
			return err
		}},
		{"replan", func(par int) error {
			opt := AccPar()
			opt.Parallelism = par
			_, err := ReplanCtx(ctx, net, tree, degraded, opt)
			return err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			allocs := func(par int) uint64 {
				var runErr error
				n := allocsAt(2, 25, func() {
					if err := c.run(par); err != nil {
						runErr = err
					}
				})
				if runErr != nil {
					t.Fatal(runErr)
				}
				return n
			}
			serial, par4 := allocs(1), allocs(4)
			t.Logf("%d allocs per %s at Parallelism 1, %d at 4", serial, c.name, par4)
			if par4 != serial {
				t.Errorf("%s at Parallelism 4 allocates %d, at 1 %d", c.name, par4, serial)
			}
		})
	}
}

// allocsAt counts the mallocs of one call of f at GOMAXPROCS procs: the
// fewest over runs calls, after a warm-up call. testing.AllocsPerRun pins
// GOMAXPROCS to 1 instead, which would size a GOMAXPROCS-wide pool to a
// single inline worker; above 1 a sync.Pool may miss on any call, which
// only adds mallocs, so the fewest is the call's own count.
func allocsAt(procs, runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	f()
	fewest := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		f()
		runtime.ReadMemStats(&ms)
		fewest = min(fewest, ms.Mallocs-before)
	}
	return fewest
}

// TestReplanSteadyStateAllocBudget fails when cache upkeep grows with the
// retained state again: a per-search trim of a full cache, or a
// whole-cache re-digest per eviction, multiplies this figure.
func TestReplanSteadyStateAllocBudget(t *testing.T) {
	net, err := models.BuildNetwork("inception", 64)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(16)
	pristine := treeFor(t, groups...)
	cache := NewSharedCache(replanBudgetCacheEntries)
	variants := StrategyAccPar.Variants()
	for i := range variants {
		variants[i].Parallelism = 1
		variants[i].Cache = cache
	}
	ctx := context.Background()
	var planErr error
	replan := func(degraded *hardware.Tree) {
		for _, tree := range []*hardware.Tree{pristine, degraded} {
			if _, err := PartitionCtx(ctx, net, tree, variants...); err != nil {
				planErr = err
			}
		}
	}
	const warmUp, runs = 32, 8
	trees := make([]*hardware.Tree, warmUp+runs+1)
	for i := range trees {
		trees[i] = slowdownTree(t, groups, i%2, 1.1+0.05*float64(i))
	}
	for _, tree := range trees[:warmUp] {
		replan(tree)
	}
	if planErr != nil {
		t.Fatal(planErr)
	}
	warm := cache.Stats()
	next := warmUp
	allocs := testing.AllocsPerRun(runs, func() {
		replan(trees[next])
		next++
	})
	if planErr != nil {
		t.Fatal(planErr)
	}
	st := cache.Stats()
	t.Logf("%.0f allocs per steady-state replan; %d evictions over the measured replans, %d entries", allocs, st.Evictions-warm.Evictions, st.Entries)
	if warm.Evictions == 0 || st.Evictions == warm.Evictions {
		t.Fatalf("cache did not trim during both warm-up and measurement: warm %+v, after %+v", warm, st)
	}
	if allocs > replanAllocBudget {
		t.Errorf("steady-state replan of inception/64 on 16+16 boards: %.0f allocs, budget %d", allocs, replanAllocBudget)
	}
}

// warmHitAllocBudget bounds the allocations of one search answered whole
// by a warm SharedCache: ResNet-50 (batch 512) on 64+64 boards, whose
// root subproblem is a cache hit. Measured at 5 (the search runs on the
// cache's own memo and search shape); 12 when every search rebuilt its
// units, segment index and level-context pool, 72 with one slice per
// multi-path segment path, 95 when it built a
// per-search memo and a string key for a separate cache, 350 when every
// hit deep-copied the cached plan of 255 nodes.
const warmHitAllocBudget = 8

// TestWarmHitAllocBudget fails when a cache hit copies the cached
// subtree again instead of linking the shared, read-only node.
func TestWarmHitAllocBudget(t *testing.T) {
	net, err := models.BuildNetwork("resnet50", 512)
	if err != nil {
		t.Fatal(err)
	}
	tree := paperTree(t, 64)
	opt := AccPar()
	opt.Parallelism = 1
	opt.Cache = NewSharedCache(0)
	ctx := context.Background()
	if _, err := PartitionCtx(ctx, net, tree, opt); err != nil {
		t.Fatal(err)
	}
	var planErr error
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := PartitionCtx(ctx, net, tree, opt); err != nil {
			planErr = err
		}
	})
	if planErr != nil {
		t.Fatal(planErr)
	}
	t.Logf("%.0f allocs per warm-cache search", allocs)
	if allocs > warmHitAllocBudget {
		t.Errorf("warm-cache ResNet-50/512 search on 64+64 boards: %.0f allocs, budget %d", allocs, warmHitAllocBudget)
	}
}
