package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"accpar/internal/dnn"
	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

// faultScenarios is the seeded property-test matrix: every fault kind,
// both groups, single and compound faults, including group loss (which
// changes the tree shape and exercises the diverged-structure fallback).
func faultScenarios(t *testing.T) []faults.Scenario {
	t.Helper()
	specs := []string{
		"slowdown:0=2.0",
		"slowdown:1=1.5",
		"membw:1=4",
		"netbw:0=8",
		"transient:1=0.05@0.001",
		"loss:1=0.25",
		"loss:0=0.5",
		"slowdown:1=3.0,netbw:1=2",
		"membw:0=2,transient:0=0.02@0.0005",
		"loss:1=0.25,slowdown:0=1.25",
	}
	out := make([]faults.Scenario, 0, len(specs))
	for i, s := range specs {
		fs, err := faults.Parse(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		sc := faults.Scenario{Seed: int64(i + 1), Faults: fs}
		if err := sc.Validate(); err != nil {
			t.Fatalf("scenario %q: %v", s, err)
		}
		out = append(out, sc)
	}
	return out
}

func degradedTreeFor(t testing.TB, groups []hardware.GroupSpec, sc faults.Scenario) *hardware.Tree {
	t.Helper()
	dgroups, err := hardware.DegradeGroups(groups, sc.Degradations())
	if err != nil {
		t.Fatal(err)
	}
	return treeFor(t, dgroups...)
}

// coldReplanReference recomputes the three replan passes with fresh
// planners and no retained state — the ground truth every incremental
// replan must match byte-for-byte.
func coldReplanReference(t *testing.T, net *dnn.Network, pristine, degraded *hardware.Tree, opt Options) *ReplanReport {
	t.Helper()
	faultFree, err := PartitionCtx(context.Background(), net, pristine, opt)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := stalePlan(net, faultFree, degraded, opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PartitionCtx(context.Background(), net, degraded, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep := &ReplanReport{
		FaultFree: faultFree,
		Stale:     stale,
		Fresh:     fresh,
		Replanned: fresh,
		Adopted:   fresh.Time() < stale.Time(),
	}
	if !rep.Adopted {
		rep.Replanned = stale
	}
	return rep
}

func assertReportsEqual(t *testing.T, label string, got, want *ReplanReport) {
	t.Helper()
	if got.Adopted != want.Adopted {
		t.Errorf("%s: adopted %v, want %v", label, got.Adopted, want.Adopted)
	}
	for _, pair := range []struct {
		name      string
		got, want *Plan
	}{
		{"fault-free", got.FaultFree, want.FaultFree},
		{"stale", got.Stale, want.Stale},
		{"fresh", got.Fresh, want.Fresh},
		{"replanned", got.Replanned, want.Replanned},
	} {
		g, w := planJSON(t, pair.got), planJSON(t, pair.want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %s plan diverged from cold reference (len %d vs %d)",
				label, pair.name, len(g), len(w))
		}
	}
}

// cachedReplan is ReplanCtx on cache with the given options.
func cachedReplan(ctx context.Context, net *dnn.Network, pristine, degraded *hardware.Tree, opt Options, cache *SharedCache) (*ReplanReport, error) {
	opt.Cache = cache
	return ReplanCtx(ctx, net, pristine, degraded, opt)
}

// TestReplanExpansionOrdering counts the subproblems each replan path
// solves for ResNet-50/512 on 128+128 boards with the TPU-v3 group's
// compute slowed 4×. A cold replan solves the pristine and the degraded
// tree (measured at 34), a novel fault on a cache warmed by the pristine
// search only what the fault touched (17), and a recurrent fault nothing.
// It fails when a replan stops reusing the cache; counts, unlike times,
// are exact on any machine.
func TestReplanExpansionOrdering(t *testing.T) {
	net, err := models.BuildNetwork("resnet50", 512)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(128)
	pristine := treeFor(t, groups...)
	degraded := slowdownTree(t, groups, 1, 4)
	ctx := context.Background()
	opt := AccPar()
	opt.Parallelism = 1
	cold, err := ReplanCtx(ctx, net, pristine, degraded, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Cache = NewSharedCache(0)
	if _, err := PartitionCtx(ctx, net, pristine, opt); err != nil {
		t.Fatal(err)
	}
	novel, err := ReplanCtx(ctx, net, pristine, degraded, opt)
	if err != nil {
		t.Fatal(err)
	}
	recurrent, err := ReplanCtx(ctx, net, pristine, degraded, opt)
	if err != nil {
		t.Fatal(err)
	}
	c, n, r := cold.Stats.Expanded, novel.Stats.Expanded, recurrent.Stats.Expanded
	t.Logf("subproblems expanded: cold %d, novel fault %d, recurrent fault %d", c, n, r)
	if !(c > n && n > r && r == 0) {
		t.Errorf("replan expansions cold %d, novel %d, recurrent %d: want cold > novel > recurrent = 0", c, n, r)
	}
}

// TestCachedReplanByteIdentical: across seeded fault scenarios, replans
// on a shared cache accumulating retained state are byte-identical to
// cold full searches — on first sight of each scenario (incremental
// against pristine-only state), on second sight (retained-plan and
// stale-memo hits), and after the whole matrix has filled the cache.
func TestCachedReplanByteIdentical(t *testing.T) {
	net, err := models.BuildNetwork("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(8)
	pristine := treeFor(t, groups...)
	opt := AccPar()
	cache := NewSharedCache(0)
	scenarios := faultScenarios(t)
	refs := make([]*ReplanReport, len(scenarios))
	trees := make([]*hardware.Tree, len(scenarios))
	for i, sc := range scenarios {
		trees[i] = degradedTreeFor(t, groups, sc)
		refs[i] = coldReplanReference(t, net, pristine, trees[i], opt)
	}
	for round := 0; round < 2; round++ {
		for i := range scenarios {
			rep, err := cachedReplan(context.Background(), net, pristine, trees[i], opt, cache)
			if err != nil {
				t.Fatalf("round %d scenario %d: %v", round, i, err)
			}
			label := fmt.Sprintf("round %d scenario %d", round, i)
			assertReportsEqual(t, label, rep, refs[i])
			if round > 0 && rep.Stats.Expanded != 0 {
				t.Errorf("%s: recurrent scenario expanded %d subproblems, want 0", label, rep.Stats.Expanded)
			}
			if round > 0 && rep.Stats.IncrementalHits == 0 {
				t.Errorf("%s: recurrent scenario reported no incremental hits", label)
			}
		}
	}
}

// TestCachedReplanEviction: churning more distinct degraded trees
// through a cache than its capacity holds evicts entries (reported via
// Stats.Invalidated, which sums to the cache's eviction count), keeps
// the cache within its bound after every call, and replans stay
// byte-identical throughout — including for a scenario whose entries
// were evicted and must re-solve.
func TestCachedReplanEviction(t *testing.T) {
	net, err := models.BuildNetwork("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(4)
	pristine := treeFor(t, groups...)
	sc0 := faults.Scenario{Seed: 1, Faults: []faults.Fault{{Kind: faults.KindSlowdown, Group: 1, Factor: 2}}}
	tree0 := degradedTreeFor(t, groups, sc0)
	ref0 := coldReplanReference(t, net, pristine, tree0, AccPar())

	// Size the cache to one replan's working set, so every further
	// distinct fault overflows it.
	probe := NewSharedCache(0)
	if _, err := cachedReplan(context.Background(), net, pristine, tree0, AccPar(), probe); err != nil {
		t.Fatal(err)
	}
	capacity := probe.Len()
	cache := NewSharedCache(capacity)
	rep, err := cachedReplan(context.Background(), net, pristine, tree0, AccPar(), cache)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, "initial", rep, ref0)

	var invalidated int64
	for i := 0; i < 12; i++ {
		sc := faults.Scenario{Seed: int64(i), Faults: []faults.Fault{
			{Kind: faults.KindSlowdown, Group: 1, Factor: 1.25 + 0.25*float64(i)},
		}}
		tree := degradedTreeFor(t, groups, sc)
		ref := coldReplanReference(t, net, pristine, tree, AccPar())
		rep, err := cachedReplan(context.Background(), net, pristine, tree, AccPar(), cache)
		if err != nil {
			t.Fatal(err)
		}
		assertReportsEqual(t, fmt.Sprintf("churn %d", i), rep, ref)
		invalidated += rep.Stats.Invalidated
		if n := cache.Len(); n > capacity {
			t.Errorf("churn %d: cache holds %d entries, capacity %d", i, n, capacity)
		}
	}
	if invalidated == 0 {
		t.Error("churn past the cache capacity evicted nothing")
	}
	if ev := cache.Stats().Evictions; ev != invalidated {
		t.Errorf("replans reported %d invalidated entries, cache evicted %d", invalidated, ev)
	}
	// sc0's entries were churned out; the replan must silently re-solve.
	rep, err = cachedReplan(context.Background(), net, pristine, tree0, AccPar(), cache)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, "after churn", rep, ref0)
	if rep.Stats.Expanded == 0 {
		t.Error("replan of a churned-out scenario expanded nothing; its entries were not evicted")
	}
}

// TestCachedReplanCancelConsistency: aborted replans on a shared cache
// report the typed sentinel, publish no report, and never leave
// partially-solved state — a subsequent live call is byte-identical to
// the cold reference.
func TestCachedReplanCancelConsistency(t *testing.T) {
	net, err := models.BuildNetwork("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(8)
	pristine := treeFor(t, groups...)
	sc := faults.Scenario{Seed: 7, Faults: []faults.Fault{{Kind: faults.KindSlowdown, Group: 0, Factor: 3}}}
	degraded := degradedTreeFor(t, groups, sc)
	ref := coldReplanReference(t, net, pristine, degraded, AccPar())

	cache := NewSharedCache(0)
	// Pre-canceled context: aborts at the first probe.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cachedReplan(canceled, net, pristine, degraded, AccPar(), cache); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled replan: got %v, want ErrCanceled", err)
	}
	// Mid-flight deadlines at increasing budgets abort at interior probes.
	for _, budget := range []time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		_, err := cachedReplan(ctx, net, pristine, degraded, AccPar(), cache)
		cancel()
		if err != nil && !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("deadline %v: got %v, want nil or ErrDeadlineExceeded", budget, err)
		}
	}
	// Whatever the aborted calls left behind, a live call matches cold.
	rep, err := cachedReplan(context.Background(), net, pristine, degraded, AccPar(), cache)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, "after aborts", rep, ref)
	// And recurrent replans (served from retained state) still match.
	rep, err = cachedReplan(context.Background(), net, pristine, degraded, AccPar(), cache)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, "retained after aborts", rep, ref)
}

// TestCacheKeysByContent: the cache keys retained work by content.
// Content-equal (network, options) pairs from distinct network objects
// share one fingerprint memo, so the second network's replan of the same
// fault expands nothing, while a different batch does not; many option
// sets on a small cache stay within its bound; and the portfolio through
// the cache is byte-identical to the one-shot portfolio.
func TestCacheKeysByContent(t *testing.T) {
	netA, err := models.BuildNetwork("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	netB, err := models.BuildNetwork("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	netC, err := models.BuildNetwork("lenet", 32)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(4)
	pristine := treeFor(t, groups...)
	degraded := slowdownTree(t, groups, 0, 2)
	ctx := context.Background()
	cache := NewSharedCache(0)
	if _, err := cachedReplan(ctx, netA, pristine, degraded, AccPar(), cache); err != nil {
		t.Fatal(err)
	}
	rep, err := cachedReplan(ctx, netB, pristine, degraded, AccPar(), cache)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Expanded != 0 {
		t.Errorf("content-equal network expanded %d subproblems, want 0", rep.Stats.Expanded)
	}
	if rep, err = cachedReplan(ctx, netC, pristine, degraded, AccPar(), cache); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Expanded == 0 {
		t.Error("different batch was served from the first network's entries")
	}

	const capacity = 64
	small := NewSharedCache(capacity)
	for i, opt := range extraOptionSets(8) {
		if _, err := cachedReplan(ctx, netA, pristine, degraded, opt, small); err != nil {
			t.Fatal(err)
		}
		if n := small.Len(); n > capacity {
			t.Errorf("option set %d: cache holds %d entries, capacity %d", i, n, capacity)
		}
	}
	if small.Stats().Evictions == 0 {
		t.Error("eight option sets on a 64-entry cache evicted nothing")
	}

	want, err := PartitionCtx(ctx, netA, pristine, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	variants := StrategyAccPar.Variants()
	for i := range variants {
		variants[i].Cache = small
	}
	for round := 0; round < 2; round++ {
		got, err := PartitionCtx(ctx, netA, pristine, variants...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(planJSON(t, got), planJSON(t, want)) {
			t.Errorf("round %d: cached portfolio plan diverged from one-shot portfolio", round)
		}
	}
}
