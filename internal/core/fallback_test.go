package core

import (
	"context"
	"math"
	"testing"

	"accpar/internal/hardware"
)

// TestLeafFallbackCommTime: unsplit leaf groups pay one Type-I weight
// exchange per implicit sub-level, at the halves' bandwidth.
func TestLeafFallbackCommTime(t *testing.T) {
	const weightBytes = 1e9
	v2, v3 := hardware.TPUv2(), hardware.TPUv3()
	// Singleton: free.
	single := groupOf(t, hardware.GroupSpec{Spec: v3, Count: 1})
	if got, err := leafFallbackCommTime(single, weightBytes, hardware.FullBisection); err != nil || got != 0 {
		t.Errorf("singleton fallback = %g, %v", got, err)
	}
	// Pair of v3: one level at one link's bandwidth each side.
	pair := groupOf(t, hardware.GroupSpec{Spec: v3, Count: 2})
	want := weightBytes / hardware.TPUv3().NetBandwidth
	if got, err := leafFallbackCommTime(pair, weightBytes, hardware.FullBisection); err != nil || math.Abs(got-want) > 1e-12*want {
		t.Errorf("pair fallback = %g, want %g (%v)", got, want, err)
	}
	// Four v3: two levels; level 1 at 2-link halves, level 2 at 1-link
	// halves.
	quad := groupOf(t, hardware.GroupSpec{Spec: v3, Count: 4})
	want = weightBytes/(2*hardware.TPUv3().NetBandwidth) + weightBytes/hardware.TPUv3().NetBandwidth
	if got, err := leafFallbackCommTime(quad, weightBytes, hardware.FullBisection); err != nil || math.Abs(got-want) > 1e-12*want {
		t.Errorf("quad fallback = %g, want %g (%v)", got, want, err)
	}
	// Heterogeneous leaf group: the slower (v2) half bounds each level.
	mixed := groupOf(t, hardware.GroupSpec{Spec: v2, Count: 2}, hardware.GroupSpec{Spec: v3, Count: 2})
	got, err := leafFallbackCommTime(mixed, weightBytes, hardware.FullBisection)
	if err != nil {
		t.Fatal(err)
	}
	// Level 1: v2 half has 2×1GB/s = 2GB/s (the slower side). Level 2
	// descends the larger... halves are equal; the deeper levels go through
	// the v2 pair (left): 1 GB/s links.
	wantMin := weightBytes / (2 * hardware.TPUv2().NetBandwidth)
	if got <= wantMin {
		t.Errorf("mixed fallback %g must exceed the first level alone %g", got, wantMin)
	}
	// Uneven split (3 members): the larger half recursion dominates.
	odd := groupOf(t, hardware.GroupSpec{Spec: v3, Count: 3})
	gotOdd, err := leafFallbackCommTime(odd, weightBytes, hardware.FullBisection)
	if err != nil {
		t.Fatal(err)
	}
	if gotOdd <= 0 {
		t.Errorf("odd-group fallback = %g", gotOdd)
	}
}

// groupOf returns the group of an array of the given groups, in order:
// the root group of its hierarchy.
func groupOf(t *testing.T, groups ...hardware.GroupSpec) *hardware.Group {
	t.Helper()
	return treeFor(t, groups...).Group
}

// TestLevelBudgetFallbackConsistency: a level-capped plan's total time
// exceeds the fully-split plan's (the fallback is plain data parallelism,
// never better than the optimized deeper levels) for a model where deeper
// partitioning helps.
func TestLevelBudgetFallbackConsistency(t *testing.T) {
	net := buildNet(t, "vgg11", 128)
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 8},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	full, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	capped, err := hardware.BuildTree(arr, 2)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := PartitionCtx(context.Background(), net, full, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := PartitionCtx(context.Background(), net, capped, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	if pc.Time() < pf.Time()*(1-1e-9) {
		t.Errorf("capped hierarchy %.6g beat the full hierarchy %.6g", pc.Time(), pf.Time())
	}
}

// TestPlanValidateRejections: corrupted plan trees are caught.
func TestPlanValidateRejections(t *testing.T) {
	net := buildNet(t, "lenet", 16)
	plan, err := PartitionCtx(context.Background(), net, paperTree(t, 2), StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	// Nil child.
	broken := *plan
	root := *plan.Root
	root.Left = nil
	root.Right = plan.Root.Right
	// A node with Right but no Left is treated as a malformed leaf.
	broken.Root = &root
	if err := broken.Validate(); err == nil {
		t.Error("half-leaf must be rejected")
	}
	// Wrong type count.
	root2 := *plan.Root
	root2.Types = root2.Types[:1]
	broken.Root = &root2
	if err := broken.Validate(); err == nil {
		t.Error("short type vector must be rejected")
	}
	// Out-of-range alpha.
	root3 := *plan.Root
	root3.Alpha = 1.5
	broken.Root = &root3
	if err := broken.Validate(); err == nil {
		t.Error("alpha out of range must be rejected")
	}
	// Negative leaf time.
	leaf := *plan.Root
	leaf.Left, leaf.Right = nil, nil
	leaf.LeafComputeTime = -1
	broken.Root = &leaf
	if err := broken.Validate(); err == nil {
		t.Error("negative leaf time must be rejected")
	}
}
