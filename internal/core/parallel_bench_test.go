package core

import (
	"context"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

// benchCtx builds a level context over a paper-scale model and a
// homogeneous 64+64 TPU-v3 split, with a mixed type assignment so every
// Table 5 pattern class contributes to the balance function. A
// heterogeneous v2/v3 root balances at the extreme share (the slower
// side's constant communication exceeds any compute it could absorb) and
// the bisection early-exits; the symmetric split makes g(α) cross zero in
// the interior, so these benchmarks exercise the full 60-iteration
// bisection the planner runs at every homogeneous level.
func benchCtx(tb testing.TB) (*levelCtx, []cost.Type) {
	tb.Helper()
	net, err := models.BuildNetwork("vgg16", 512)
	if err != nil {
		tb.Fatal(err)
	}
	arr, err := hardware.NewHomogeneous(hardware.TPUv3(), 128)
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		tb.Fatal(err)
	}
	opt := Options{}.withDefaults()
	sideI := Side{Compute: tree.Left.Group.ComputeDensity(), Net: opt.Topology.BisectionBandwidth(tree.Left.Group)}
	sideJ := Side{Compute: tree.Right.Group.ComputeDensity(), Net: opt.Topology.BisectionBandwidth(tree.Right.Group)}
	ctx := rootCtx(net, opt, sideI, sideJ)
	ctx.alpha = 0.5
	types := make([]cost.Type, len(ctx.units))
	for i := range types {
		types[i] = cost.Types[i%len(cost.Types)]
	}
	return ctx, types
}

// BenchmarkSolveRatio measures the Eq. 10 bisection with the precomputed
// ratioCoeffs closed form: the level is aggregated once, then each of the
// 60 bisection steps is a handful of multiplications.
func BenchmarkSolveRatio(b *testing.B) {
	ctx, types := benchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.solveRatio(types); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveRatioReference measures the pre-optimization bisection
// that re-runs the full O(units + edges) evalLevel sweep at every step —
// the baseline BenchmarkSolveRatio's speedup is quoted against.
func BenchmarkSolveRatioReference(b *testing.B) {
	ctx, types := benchCtx(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.solveRatioReference(types); err != nil {
			b.Fatal(err)
		}
	}
}

// benchTree builds the heterogeneous paper array at the given per-kind
// scale.
func benchTree(b *testing.B, perKind int) *hardware.Tree {
	b.Helper()
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: perKind},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: perKind})
	if err != nil {
		b.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		b.Fatal(err)
	}
	return tree
}

// BenchmarkRunDP measures one Eq. 9 type DP over a whole network at the
// root split of the 64+64 TPU-v2/v3 array, at a fixed heterogeneous
// share α = 0.37: the kernel every split of the search runs once or more
// per type/ratio round.
func BenchmarkRunDP(b *testing.B) {
	tree := benchTree(b, 64)
	opt := Options{}.withDefaults()
	sideI := Side{Compute: tree.Left.Group.ComputeDensity(), Net: opt.Topology.BisectionBandwidth(tree.Left.Group)}
	sideJ := Side{Compute: tree.Right.Group.ComputeDensity(), Net: opt.Topology.BisectionBandwidth(tree.Right.Group)}
	for _, model := range []string{"inception", "resnet50"} {
		b.Run(model+"/512", func(b *testing.B) {
			net, err := models.BuildNetwork(model, 512)
			if err != nil {
				b.Fatal(err)
			}
			ctx := rootCtx(net, opt, sideI, sideJ)
			ctx.alpha = 0.37
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ctx.runDP(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionHierarchical measures the full hierarchical planner —
// one option set's search with memoized subtree reuse — on ResNet-50 over
// the 128+128 paper array. serial-reject is the same search under
// MemoryReject, which the paper array's capacities never bind: its cost
// over serial is the constrained search's bookkeeping.
func BenchmarkPartitionHierarchical(b *testing.B) {
	net, err := models.BuildNetwork("resnet50", 512)
	if err != nil {
		b.Fatal(err)
	}
	tree := benchTree(b, 128)
	for _, bc := range []struct {
		name string
		mem  MemoryMode
	}{
		{name: "serial"},
		{name: "serial-reject", mem: MemoryReject},
	} {
		b.Run(bc.name, func(b *testing.B) {
			opt := AccPar()
			opt.MemoryLimit = bc.mem
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := PartitionCtx(context.Background(), net, tree, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReplanAfterFault measures the three replan paths on ResNet-50
// over the 128+128 paper array with the TPU-v3 group slowed: full, a
// replan with no retained state; novel, a never-seen slowdown on a cache
// warmed by the pristine search; recurrent, a slowdown the cache has
// already replanned.
func BenchmarkReplanAfterFault(b *testing.B) {
	net, err := models.BuildNetwork("resnet50", 512)
	if err != nil {
		b.Fatal(err)
	}
	groups := v2v3Groups(128)
	pristine := treeFor(b, groups...)
	degraded := slowdownTree(b, groups, 1, 2)
	ctx := context.Background()
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ReplanCtx(ctx, net, pristine, degraded, AccPar()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("novel", func(b *testing.B) {
		opt := AccPar()
		opt.Cache = NewSharedCache(0)
		if _, err := PartitionCtx(ctx, net, pristine, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			novel := slowdownTree(b, groups, 1, 1.5+0.001*float64(i))
			b.StartTimer()
			if _, err := ReplanCtx(ctx, net, pristine, novel, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("recurrent", func(b *testing.B) {
		opt := AccPar()
		opt.Cache = NewSharedCache(0)
		if _, err := ReplanCtx(ctx, net, pristine, degraded, opt); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ReplanCtx(ctx, net, pristine, degraded, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
}
