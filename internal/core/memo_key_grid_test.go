package core_test

import (
	"context"
	"slices"
	"testing"

	"accpar/internal/core"
	"accpar/internal/dse"
	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/tensor"
)

// TestSubproblemKeysDistinctOnSweepGrid searches every candidate of the
// dse-sweep grid (ResNet-50/512; TPU-v2/v3 counts 0/4/8, five level
// caps, two link tiers; pristine and with the v2 kind slowed 2×) under
// every AccPar variant on one SharedCache, as a sweep does, and checks that each distinct (subtree digest,
// dims) pair the searches keyed has a distinct memo key. With memory
// constraints off every keyed subproblem is a node of some variant's
// plan, so walking the plans against their trees, deriving each node's
// dims from its parent's (core.ScaleUnitDims), enumerates them all.
func TestSubproblemKeysDistinctOnSweepGrid(t *testing.T) {
	space := &dse.Space{
		Kinds: []dse.Kind{
			{Name: "tpu-v2", Spec: hardware.TPUv2(), Price: 1.0},
			{Name: "tpu-v3", Spec: hardware.TPUv3(), Price: 2.2},
		},
		Counts:    []int{0, 4, 8},
		Levels:    []int{2, 8, 16, 32, 64},
		NetScales: []float64{1, 2},
	}
	cands, err := space.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	fs, err := faults.Parse("slowdown:0=2.0")
	if err != nil {
		t.Fatal(err)
	}
	slow := (&faults.Scenario{Faults: fs}).Degradations()[0]
	var trees []*hardware.Tree
	for i := range cands {
		c := &cands[i]
		tree, err := c.Tree()
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, tree)
		degs := map[int]hardware.Degradation{}
		for gi, kind := range c.Kinds {
			if kind == "tpu-v2" {
				degs[gi] = slow
			}
		}
		if len(degs) == 0 {
			continue
		}
		groups, err := hardware.DegradeGroups(c.Groups(), degs)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := hardware.NewHeterogeneous(groups...)
		if err != nil {
			t.Fatal(err)
		}
		degraded, err := hardware.BuildTree(arr, c.Levels)
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, degraded)
	}
	net, err := models.BuildNetwork("resnet50", 512)
	if err != nil {
		t.Fatal(err)
	}
	type subproblem struct {
		digest [16]byte
		dims   []tensor.LayerDims
	}
	units := net.Units()
	rootDims := make([]tensor.LayerDims, len(units))
	for i, u := range units {
		rootDims[i] = u.Dims
	}
	owner := map[[16]byte]subproblem{}
	var walk func(n *core.PlanNode, hw *hardware.Tree, dims []tensor.LayerDims)
	walk = func(n *core.PlanNode, hw *hardware.Tree, dims []tensor.LayerDims) {
		if n == nil {
			return
		}
		key := core.SubproblemKey(hw, dims)
		sub := subproblem{hw.Identity().Digest, dims}
		if prev, ok := owner[key]; ok && (prev.digest != sub.digest || !slices.Equal(prev.dims, sub.dims)) {
			t.Fatalf("key %x names two subproblems:\n%x %v\n%x %v", key, prev.digest, prev.dims, sub.digest, sub.dims)
		}
		owner[key] = sub
		if n.IsLeaf() {
			return
		}
		walk(n.Left, hw.Left, core.ScaleUnitDims(units, dims, n.Types, n.Alpha))
		walk(n.Right, hw.Right, core.ScaleUnitDims(units, dims, n.Types, 1-n.Alpha))
	}
	cache := core.NewSharedCache(0)
	for _, opt := range core.StrategyAccPar.Variants() {
		opt.Cache = cache
		for _, tree := range trees {
			plan, err := core.PartitionCtx(context.Background(), net, tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			walk(plan.Root, tree, rootDims)
		}
	}
	if len(owner) < 500 {
		t.Fatalf("only %d distinct subproblems keyed; the grid expands over 800", len(owner))
	}
	t.Logf("%d distinct subproblems, each with its own key", len(owner))
}
