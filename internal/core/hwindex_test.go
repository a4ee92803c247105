package core

import (
	"bytes"
	"context"
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

func collectNodes(t *hardware.Tree, into map[*hardware.Tree]bool) {
	into[t] = true
	if !t.IsLeaf() {
		collectNodes(t.Left, into)
		collectNodes(t.Right, into)
	}
}

// assertIndexMatchesHolds checks that the registry's shared index holds
// exactly the nodes of the union of its resident engines' working-set
// roots, with one hold per (engine, root) — the bound the old whole-index
// rebuild enforced, now kept by reference counts alone.
func assertIndexMatchesHolds(t *testing.T, reg *ReplanEngines) {
	t.Helper()
	want := make(map[*hardware.Tree]bool)
	holds := make(map[*hardware.Tree]int)
	for _, e := range reg.m {
		if e.base.hw != reg.hw {
			t.Fatal("resident engine does not read the registry's index")
		}
		for _, r := range e.recent {
			collectNodes(r.root, want)
			holds[r.root]++
		}
	}
	x := reg.hw
	x.mu.RLock()
	defer x.mu.RUnlock()
	if len(x.m) != len(want) {
		t.Errorf("index holds %d nodes, retained roots span %d", len(x.m), len(want))
	}
	for n := range x.m {
		if !want[n] {
			t.Errorf("index holds a node of no retained root (level %d, %s)", n.Level, n.Group.String())
			break
		}
	}
	if len(x.refs) != len(holds) {
		t.Errorf("index tracks %d held roots, engines hold %d", len(x.refs), len(holds))
	}
	for root, n := range holds {
		if x.refs[root] != n {
			t.Errorf("root held %d times, index counts %d", n, x.refs[root])
		}
	}
}

// TestHWIndexBoundedUnderChurn pushes three working sets' worth of
// distinct degraded trees through a multi-variant registry (two callers
// at once, while a third keeps dropping engines by registry capacity, so
// evictions and drops race in-flight searches), re-presents one tree as
// a content-identical new object, and drops one more engine. The shared
// index must end up holding exactly the retained trees' nodes, and the
// dropped engine must keep planning correctly without touching it.
func TestHWIndexBoundedUnderChurn(t *testing.T) {
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
	assertIndexMatchesHolds(t, reg)

	// A content-identical tree object replaces the retained pointer; the
	// old object's nodes must leave the index.
	last := trees[len(trees)-1]
	twin := slowdownTree(t, groups, (len(trees)-1)%2, 1.1+0.05*float64(len(trees)-1))
	if err := planBest(twin); err != nil {
		t.Fatal(err)
	}
	eng, err := reg.Engine(net, variants[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.ReplanCtx(ctx, pristine, twin); err != nil {
		t.Fatal(err)
	}
	assertIndexMatchesHolds(t, reg)
	reg.hw.mu.RLock()
	_, stale := reg.hw.m[last]
	reg.hw.mu.RUnlock()
	if stale {
		t.Error("index still holds the replaced tree object")
	}

	// Two more option sets overflow the registry: its least recently used
	// variant engine is dropped and releases its working set.
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
	assertIndexMatchesHolds(t, reg)

	// The caller may still hold the dropped engine: it plans correctly on
	// private state and never pins hardware in the registry's index.
	before := reg.hw.size()
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
	if after := reg.hw.size(); after != before {
		t.Errorf("dropped engine changed the registry index: %d -> %d nodes", before, after)
	}
	assertIndexMatchesHolds(t, reg)
}

// TestReplanEnginesIndexNewTreeOnce: once the working sets are full, a
// portfolio partition of a new degraded 64+64 tree through all nine
// AccPar variants digests exactly that tree's nodes, once. Digesting it
// per variant, or re-digesting the retained working set, fails here.
func TestReplanEnginesIndexNewTreeOnce(t *testing.T) {
	net := buildNet(t, "lenet", 16)
	groups := v2v3Groups(64)
	variants := StrategyAccPar.Variants()
	reg := NewReplanEngines(0)
	ctx := context.Background()
	planBest := func(tree *hardware.Tree) {
		t.Helper()
		if _, _, err := reg.PartitionCtx(ctx, net, tree, variants...); err != nil {
			t.Fatal(err)
		}
	}
	planBest(treeFor(t, groups...))
	if len(reg.m) != len(variants) {
		t.Fatalf("registry holds %d engines, want %d", len(reg.m), len(variants))
	}
	// Shrink the working sets so a few trees reach steady state, where
	// every new tree evicts one.
	for _, e := range reg.m {
		e.recentCap = 2
	}
	for i := 0; i < 3; i++ {
		planBest(slowdownTree(t, groups, 1, 1.5+0.5*float64(i)))
	}

	fresh := slowdownTree(t, groups, 0, 3.25)
	nodes := make(map[*hardware.Tree]bool)
	collectNodes(fresh, nodes)
	if len(nodes) != 255 {
		t.Fatalf("64+64 tree has %d nodes, want 255", len(nodes))
	}
	before := obsNodesIndexed.Value()
	planBest(fresh)
	if got := obsNodesIndexed.Value() - before; got != int64(len(nodes)) {
		t.Errorf("new tree through %d variants indexed %d nodes, want %d", len(variants), got, len(nodes))
	}
	before = obsNodesIndexed.Value()
	planBest(fresh)
	if got := obsNodesIndexed.Value() - before; got != 0 {
		t.Errorf("recurrent tree indexed %d nodes, want 0", got)
	}
	assertIndexMatchesHolds(t, reg)
}

// TestReplanEngineGoneSpecs: the retention pass tests memo entries only
// against specs that actually left the working set. Evicting a tree whose
// specs other retained trees still reach, or swapping a tree for a
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
	kept := mergeSpecs(v2Specs, e.admit(slowerV3).specs) // evicts slowV3, the last tree holding v3'
	gone := e.goneSpecs()
	want := 0
	for _, fp := range goneV3 {
		if !covers(kept, []uint64{fp}) {
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
		t.Errorf("pointer swap reported gone specs %v", gone)
	}
	nodes := make(map[*hardware.Tree]bool)
	collectNodes(slowV2, nodes)
	collectNodes(twin, nodes)
	if n := e.base.hw.size(); n != len(nodes) {
		t.Errorf("index holds %d nodes after the swap, working set spans %d", n, len(nodes))
	}
}
