package core

import (
	"context"
	"testing"

	"accpar/internal/hardware"
)

// scaledTree builds the 4+4 heterogeneous tree with every spec's compute
// and network scaled.
func scaledTree(t *testing.T, computeScale, netScale float64) *hardware.Tree {
	t.Helper()
	v2, v3 := hardware.TPUv2(), hardware.TPUv3()
	for _, s := range []*hardware.Spec{&v2, &v3} {
		s.FLOPS *= computeScale
		s.NetBandwidth *= netScale
		s.MemBandwidth *= computeScale
	}
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: v2, Count: 4},
		hardware.GroupSpec{Spec: v3, Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestPropertyFasterComputeNeverSlower: doubling every accelerator's
// compute (and memory) throughput never meaningfully slows an AccPar
// plan. True monotonicity is not guaranteed — the level-wise search is
// greedy, and changing the compute/communication balance can steer it
// down a slightly different dim-scaling path — so the assertion allows a
// 2% search-noise band (observed path-dependence is ≈0.6% on ResNet-18).
func TestPropertyFasterComputeNeverSlower(t *testing.T) {
	for _, model := range []string{"alexnet", "resnet18", "vgg11"} {
		net := buildNet(t, model, 64)
		base, err := PartitionCtx(context.Background(), net, scaledTree(t, 1, 1), StrategyAccPar.Variants()...)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := PartitionCtx(context.Background(), net, scaledTree(t, 2, 1), StrategyAccPar.Variants()...)
		if err != nil {
			t.Fatal(err)
		}
		if fast.Time() > base.Time()*1.02 {
			t.Errorf("%s: 2× compute slowed the plan: %.6g vs %.6g", model, fast.Time(), base.Time())
		}
	}
}

// TestPropertyMoreBandwidthNeverSlower: doubling every link rate never
// slows an AccPar plan.
func TestPropertyMoreBandwidthNeverSlower(t *testing.T) {
	for _, model := range []string{"alexnet", "resnet18", "vgg11"} {
		net := buildNet(t, model, 64)
		base, err := PartitionCtx(context.Background(), net, scaledTree(t, 1, 1), StrategyAccPar.Variants()...)
		if err != nil {
			t.Fatal(err)
		}
		fat, err := PartitionCtx(context.Background(), net, scaledTree(t, 1, 2), StrategyAccPar.Variants()...)
		if err != nil {
			t.Fatal(err)
		}
		if fat.Time() > base.Time()*1.02 {
			t.Errorf("%s: 2× bandwidth slowed the plan: %.6g vs %.6g", model, fat.Time(), base.Time())
		}
	}
}

// TestPropertyBatchMonotone: a larger mini-batch never makes the iteration
// faster (more work per iteration under the same plan space).
func TestPropertyBatchMonotone(t *testing.T) {
	tree := scaledTree(t, 1, 1)
	for _, model := range []string{"alexnet", "resnet18"} {
		small := buildNet(t, model, 32)
		large := buildNet(t, model, 128)
		ps, err := PartitionCtx(context.Background(), small, tree, StrategyAccPar.Variants()...)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := PartitionCtx(context.Background(), large, tree, StrategyAccPar.Variants()...)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Time() < ps.Time()*(1-1e-9) {
			t.Errorf("%s: batch 128 iteration %.6g faster than batch 32's %.6g", model, pl.Time(), ps.Time())
		}
		// Throughput should improve (or at worst stay put) with batching.
		if pl.Throughput() < ps.Throughput()*(1-1e-9) {
			t.Errorf("%s: batch 128 throughput %.6g below batch 32's %.6g", model, pl.Throughput(), ps.Throughput())
		}
	}
}
