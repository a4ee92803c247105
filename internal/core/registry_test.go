package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/optimizer"
)

// slowdownTree returns the fleet with group g slowed down by factor.
func slowdownTree(t *testing.T, groups []hardware.GroupSpec, g int, factor float64) *hardware.Tree {
	t.Helper()
	sc := faults.Scenario{Faults: []faults.Fault{{Kind: faults.KindSlowdown, Group: g, Factor: factor}}}
	return degradedTreeFor(t, groups, sc)
}

// extraOptionSets returns n option sets whose search fingerprints differ
// from each other and from the AccPar portfolio's: the portfolio's
// variants under every other optimizer, then under every other
// interconnect.
func extraOptionSets(n int) []Options {
	var out []Options
	for _, top := range hardware.Topologies {
		for _, k := range optimizer.Kinds {
			for _, v := range StrategyAccPar.Variants() {
				if k == v.Optimizer && top == v.Topology {
					continue
				}
				v.Optimizer, v.Topology = k, top
				if out = append(out, v); len(out) == n {
					return out
				}
			}
		}
	}
	panic("extraOptionSets: too few option sets")
}

// TestCacheChurn pushes 96 distinct degraded trees through the
// AccPar portfolio on a small shared cache, from two callers at once,
// while a third replans under extra option sets (more search
// fingerprints in the same cache), so trims race in-flight searches.
// Afterwards the cache must be within its capacity and have evicted; a
// serial tail must stay within the bound after every call; a
// content-identical new tree object must be served as the retained one
// (a replan that expands nothing); and a search whose entries were
// evicted must still plan byte-identically to a cold search.
func TestCacheChurn(t *testing.T) {
	net := buildNet(t, "lenet", 16)
	groups := v2v3Groups(4)
	pristine := treeFor(t, groups...)
	const capacity = 256
	cache := NewSharedCache(capacity)
	variants := StrategyAccPar.Variants()
	for i := range variants {
		variants[i].Cache = cache
	}
	ctx := context.Background()
	planBest := func(tree *hardware.Tree) error {
		_, err := PartitionCtx(ctx, net, tree, variants...)
		return err
	}
	if err := planBest(pristine); err != nil {
		t.Fatal(err)
	}

	trees := make([]*hardware.Tree, 96)
	for i := range trees {
		trees[i] = slowdownTree(t, groups, i%2, 1.1+0.05*float64(i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(trees); i += 2 {
				if err := planBest(trees[i]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, opt := range extraOptionSets(len(trees) / 4) {
			if _, err := cachedReplan(ctx, net, pristine, trees[i], opt, cache); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := cache.Len(); n > capacity {
		t.Errorf("cache holds %d entries after the churn, capacity %d", n, capacity)
	}
	if cache.Stats().Evictions == 0 {
		t.Error("churn through a small cache evicted nothing")
	}

	// A content-identical tree object is the retained tree: its replan is
	// served whole from the cache.
	last := len(trees) - 1
	if _, err := cachedReplan(ctx, net, pristine, trees[last], variants[0], cache); err != nil {
		t.Fatal(err)
	}
	twin := slowdownTree(t, groups, last%2, 1.1+0.05*float64(last))
	rep, err := cachedReplan(ctx, net, pristine, twin, variants[0], cache)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Expanded != 0 {
		t.Errorf("content-identical tree expanded %d subproblems, want 0", rep.Stats.Expanded)
	}

	// A serial tail under new option sets stays within the bound after
	// every call, and the first tree's entries are long evicted: its plan
	// must re-solve to the cold bytes.
	for i, opt := range extraOptionSets(len(trees)/4 + 4)[len(trees)/4:] {
		if _, err := cachedReplan(ctx, net, pristine, twin, opt, cache); err != nil {
			t.Fatal(err)
		}
		if n := cache.Len(); n > capacity {
			t.Errorf("serial call %d: cache holds %d entries, capacity %d", i, n, capacity)
		}
	}
	got, err := PartitionCtx(ctx, net, trees[0], variants...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PartitionCtx(ctx, net, trees[0], StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, got), planJSON(t, want)) {
		t.Error("plan of an evicted tree diverged from a cold search")
	}
}
