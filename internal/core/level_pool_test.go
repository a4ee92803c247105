package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"accpar/internal/hardware"
)

func homTree(t *testing.T, spec hardware.Spec, n, levels int) *hardware.Tree {
	t.Helper()
	arr, err := hardware.NewHomogeneous(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, levels)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestPooledLevelsConcurrentCache runs concurrent portfolio searches,
// each running its option sets on a pool (Parallelism 4), on one
// SharedCache, so
// every caller of a fingerprint takes and returns the same retained
// shape's pooled level contexts at once. Every plan must be
// byte-identical to a serial one-shot search; under -race this also
// checks that no context is shared while in use.
func TestPooledLevelsConcurrentCache(t *testing.T) {
	net := buildNet(t, "inception", 64)
	cache := NewSharedCache(0)
	variants := cachedVariants(cache)
	for i := range variants {
		variants[i].Parallelism = 4
	}
	trees := []*hardware.Tree{
		paperTree(t, 4),
		paperTree(t, 8),
		homTree(t, hardware.TPUv3(), 8, 64),
		treeFor(t, hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 4}, hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 12}),
	}
	serial := StrategyAccPar.Variants()
	for i := range serial {
		serial[i].Parallelism = 1
	}
	want := make([][]byte, len(trees))
	for i, tree := range trees {
		plan, err := PartitionCtx(context.Background(), net, tree, serial...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = planJSON(t, plan)
	}
	const callers = 6
	var wg sync.WaitGroup
	errs := make(chan error, callers*len(trees))
	got := make([][][]byte, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got[c] = make([][]byte, len(trees))
			for k := range trees {
				i := (c + k) % len(trees)
				plan, err := PartitionCtx(context.Background(), net, trees[i], variants...)
				if err != nil {
					errs <- err
					return
				}
				var buf bytes.Buffer
				if err := plan.WriteJSON(&buf); err != nil {
					errs <- err
					return
				}
				got[c][i] = buf.Bytes()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for c := range got {
		for i := range trees {
			if !bytes.Equal(got[c][i], want[i]) {
				t.Errorf("caller %d tree %d: concurrent cached plan diverges from the serial one-shot search", c, i)
			}
		}
	}
}

// TestPlanSurvivesLaterSearches: pooled level contexts are reused by
// every later split, so a finished plan must not alias them. The plan's
// bytes are taken, more searches and a replan run on other trees through
// the same cache entry (rewriting every pooled context of its retained
// shape), and the plan must encode to the same bytes again.
func TestPlanSurvivesLaterSearches(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	opt := AccPar()
	opt.Cache = NewSharedCache(0)
	ctx := context.Background()
	pristine := paperTree(t, 4)
	first, err := PartitionCtx(ctx, net, pristine, opt)
	if err != nil {
		t.Fatal(err)
	}
	before := planJSON(t, first)
	for _, tree := range []*hardware.Tree{
		paperTree(t, 8),
		homTree(t, hardware.TPUv2(), 16, 64),
		treeFor(t, hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 12}, hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 4}),
	} {
		if _, err := PartitionCtx(ctx, net, tree, opt); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ReplanCtx(ctx, net, pristine, homTree(t, hardware.TPUv3(), 8, 64), opt); err != nil {
		t.Fatal(err)
	}
	if after := planJSON(t, first); !bytes.Equal(before, after) {
		t.Error("plan bytes changed after later searches on the same cache entry: a node aliases pooled scratch")
	}
}
