package dse

import (
	"context"
	"testing"

	"accpar/internal/core"
	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/obs"
	"accpar/internal/parallel"
)

// benchSpace is plannerbench's dse-sweep grid: two kinds, counts 0/4/8,
// five level caps and two link tiers — 80 candidates of ResNet-50/512.
func benchSpace() *Space {
	return &Space{
		Kinds: []Kind{
			{Name: "tpu-v2", Spec: hardware.TPUv2(), Price: 1.0},
			{Name: "tpu-v3", Spec: hardware.TPUv3(), Price: 2.2},
		},
		Counts:    []int{0, 4, 8},
		Levels:    []int{2, 8, 16, 32, 64},
		NetScales: []float64{1, 2},
	}
}

// benchConfig sweeps the grid under a 2× slowdown of the TPU-v2 kind.
func benchConfig() Config {
	return Config{Model: "resnet50", Batch: 512, Fault: "slowdown:0=2.0"}
}

// coldSweep plans every candidate of the space the way a sweep without
// its shared plan cache would: each candidate on its own, with the AccPar
// portfolio on the pristine tree and, when the fault afflicts it, again on
// the degraded tree, every search on a private memo. A replan's stale
// re-costing is left out: it re-costs stored decisions and expands no
// subproblem when the fault keeps the tree's shape, as a slowdown does.
// Candidates fan out over cfg.Workers and each portfolio's option sets
// over parallelism.
func coldSweep(ctx context.Context, space *Space, cfg Config, parallelism int) error {
	cands, err := space.Enumerate()
	if err != nil {
		return err
	}
	net, err := models.BuildNetwork(cfg.Model, cfg.Batch)
	if err != nil {
		return err
	}
	fs, err := faults.Parse(cfg.Fault)
	if err != nil {
		return err
	}
	scenario := &faults.Scenario{Faults: fs}
	kinds := kindIndexOf(space)
	variants := core.StrategyAccPar.Variants()
	for i := range variants {
		variants[i].Parallelism = parallelism
	}
	return parallel.ForEachCtx(ctx, len(cands), cfg.Workers, func(i int) error {
		tree, err := cands[i].Tree()
		if err != nil {
			return err
		}
		if _, err := core.PartitionCtx(ctx, net, tree, variants...); err != nil {
			return err
		}
		degraded, err := degradedTree(&cands[i], scenario, kinds)
		if err != nil || degraded == nil {
			return err
		}
		_, err = core.PartitionCtx(ctx, net, degraded, variants...)
		return err
	})
}

// BenchmarkSweep times one fresh sweep of the dse-sweep grid per op
// (shared), and the same grid planned candidate by candidate with no
// shared cache (cold) at the same fan-out.
func BenchmarkSweep(b *testing.B) {
	space, cfg := benchSpace(), benchConfig()
	ctx := context.Background()
	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Sweep(ctx, space, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := coldSweep(ctx, space, cfg, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// sweepAmortizationFloor is the least factor by which the sweep must cut
// the subproblems the dse-sweep grid expands, against coldSweep. Measured
// at 6.4 (7,164 cold, 1,112 shared). With a private cache per candidate
// it falls to 5.1 (1,408 shared), because the sweep still plans
// duplicate trees once and replans on each candidate's own pristine
// search; the floor sits between the two. The smaller test grid
// (smallSpace) reaches only 4.4, so the floor is checked on this one.
const sweepAmortizationFloor = 6

// TestSweepAmortizationFloor fails when candidates stop sharing solved
// subproblems through the sweep's plan cache. It counts subproblems, not
// time, so it is exact on any machine; everything runs serially so the
// process-wide counter sees only this test's searches.
func TestSweepAmortizationFloor(t *testing.T) {
	space, cfg := benchSpace(), benchConfig()
	cfg.Workers = 1
	ctx := context.Background()
	expanded := func(run func() error) int64 {
		before := obs.Default().Snapshot().Counters["core.subproblems_expanded"]
		if err := run(); err != nil {
			t.Fatal(err)
		}
		return obs.Default().Snapshot().Counters["core.subproblems_expanded"] - before
	}
	shared := expanded(func() error {
		_, err := Sweep(ctx, space, cfg)
		return err
	})
	cold := expanded(func() error { return coldSweep(ctx, space, cfg, 1) })
	t.Logf("subproblems expanded: %d cold, %d shared (%.1fx)", cold, shared, float64(cold)/float64(shared))
	if shared <= 0 || cold < sweepAmortizationFloor*shared {
		t.Errorf("dse-sweep grid: %d subproblems expanded cold, %d shared; want at least %dx fewer shared", cold, shared, sweepAmortizationFloor)
	}
}
