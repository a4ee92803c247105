package core

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"

	"accpar/internal/faults"
	"accpar/internal/hardware"
)

// slowdownTree returns the fleet with group g slowed down by factor.
func slowdownTree(t *testing.T, groups []hardware.GroupSpec, g int, factor float64) *hardware.Tree {
	t.Helper()
	sc := faults.Scenario{Faults: []faults.Fault{{Kind: faults.KindSlowdown, Group: g, Factor: factor}}}
	return degradedTreeFor(t, groups, sc)
}

// assertRegistryBounded checks that the registry holds at most its
// capacity in engines and that no resident engine's working set exceeds
// its own bound.
func assertRegistryBounded(t *testing.T, reg *ReplanEngines) {
	t.Helper()
	if n := reg.Len(); n > reg.capacity {
		t.Errorf("registry holds %d engines, capacity %d", n, reg.capacity)
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for _, e := range reg.m {
		e.mu.Lock()
		if len(e.recent) > e.recentCap {
			t.Errorf("engine working set holds %d trees, bound %d", len(e.recent), e.recentCap)
		}
		e.mu.Unlock()
	}
}

// TestReplanEnginesChurn pushes three working sets' worth of distinct
// degraded trees through a multi-variant registry (two callers at once,
// while a third keeps dropping engines by registry capacity, so
// evictions and drops race in-flight searches), re-presents one tree as
// a content-identical new object, and drops one more engine. The
// registry and every working set must stay within their bounds, the
// content-identical object must be admitted as the tree already
// retained, and the dropped engine must keep planning byte-identically
// to a cold search.
func TestReplanEnginesChurn(t *testing.T) {
	net := buildNet(t, "lenet", 16)
	groups := v2v3Groups(4)
	pristine := treeFor(t, groups...)
	variants := StrategyAccPar.Variants()
	reg := NewReplanEngines(len(variants) + 1)
	ctx := context.Background()
	planBest := func(tree *hardware.Tree) error {
		_, _, err := reg.PartitionCtx(ctx, net, tree, variants...)
		return err
	}
	if err := planBest(pristine); err != nil {
		t.Fatal(err)
	}

	trees := make([]*hardware.Tree, 3*defaultRecentTrees)
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
	// Meanwhile, extra option sets keep overflowing the registry, dropping
	// variant engines whose searches may still be in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < len(trees)/4; i++ {
			opt := AccPar()
			opt.MaxRatioIters = 20 + i
			e, err := reg.Engine(net, opt)
			if err == nil {
				_, _, err = e.PlanCtx(ctx, trees[i])
			}
			if err != nil {
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
	assertRegistryBounded(t, reg)

	// A content-identical tree object is the retained tree: admitting it
	// moves the existing entry to the front instead of adding one.
	last := len(trees) - 1
	twin := slowdownTree(t, groups, last%2, 1.1+0.05*float64(last))
	eng, err := reg.Engine(net, variants[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ReplanCtx(ctx, pristine, trees[last]); err != nil {
		t.Fatal(err)
	}
	eng.mu.Lock()
	size := len(eng.recent)
	eng.mu.Unlock()
	if err := planBest(twin); err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ReplanCtx(ctx, pristine, twin); err != nil {
		t.Fatal(err)
	}
	eng.mu.Lock()
	if len(eng.recent) != size {
		t.Errorf("content-identical tree grew the working set: %d -> %d trees", size, len(eng.recent))
	}
	if eng.recent[0].digest != twin.Identity().Digest {
		t.Error("content-identical tree was not admitted as the retained one")
	}
	eng.mu.Unlock()
	assertRegistryBounded(t, reg)

	// Two more option sets overflow the registry: its least recently used
	// variant engine is dropped.
	dropped := reg.m[reg.order[len(reg.order)-1]]
	for i := 0; i < 2; i++ {
		opt := AccPar()
		opt.MaxRatioIters = 5 + i
		e, err := reg.Engine(net, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.PlanCtx(ctx, twin); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range reg.m {
		if e == dropped {
			t.Fatal("registry did not drop its least recently used engine")
		}
	}
	assertRegistryBounded(t, reg)

	// The caller may still hold the dropped engine: it keeps planning
	// correctly on its own retained state.
	probe := slowdownTree(t, groups, 0, 7)
	got, _, err := dropped.PlanCtx(ctx, probe)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PartitionCtx(context.Background(), net, probe, dropped.base.opt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, got), planJSON(t, want)) {
		t.Error("dropped engine's plan diverged from a cold search")
	}
}

// TestReplanEngineGoneSpecs: the retention pass tests memo entries only
// against specs that actually left the working set. Evicting a tree whose
// specs other retained trees still reach, or re-presenting a tree as a
// content-identical object, leaves nothing to invalidate; evicting the
// last tree holding a spec reports exactly that spec.
func TestReplanEngineGoneSpecs(t *testing.T) {
	groups := v2v3Groups(4)
	e, err := NewReplanEngine(buildNet(t, "lenet", 16), AccPar())
	if err != nil {
		t.Fatal(err)
	}
	e.recentCap = 2
	pristine := treeFor(t, groups...)         // {v2, v3}
	slowV3 := slowdownTree(t, groups, 1, 2)   // {v2, v3'}
	slowV2 := slowdownTree(t, groups, 0, 2)   // {v2', v3}
	slowerV3 := slowdownTree(t, groups, 1, 3) // {v2, v3''}
	twin := slowdownTree(t, groups, 1, 3)     // slowerV3's content, new object
	e.mu.Lock()
	defer e.mu.Unlock()

	e.admit(pristine)
	goneV3 := e.admit(slowV3).specs
	v2Specs := e.admit(slowV2).specs // evicts pristine: v2 lives on in slowV3, v3 in slowV2
	if gone := e.goneSpecs(); gone != nil {
		t.Errorf("eviction with every spec still reachable reported gone specs %v", gone)
	}
	kept := hardware.MergeSpecs(v2Specs, e.admit(slowerV3).specs) // evicts slowV3, the last tree holding v3'
	gone := e.goneSpecs()
	want := 0
	for _, fp := range goneV3 {
		if !slices.Contains(kept, fp) {
			want++
			if !gone[fp] {
				t.Errorf("spec %x left the working set but is not reported gone", fp)
			}
		}
	}
	if want != 1 || len(gone) != want {
		t.Errorf("%d specs reported gone, want exactly the slowed v3 spec (%d)", len(gone), want)
	}

	e.admit(twin)
	if gone := e.goneSpecs(); gone != nil {
		t.Errorf("content-identical tree reported gone specs %v", gone)
	}
	if len(e.recent) != 2 {
		t.Errorf("working set holds %d trees after the twin, want 2", len(e.recent))
	}
}
