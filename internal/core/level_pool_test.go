package core

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"accpar/internal/hardware"
)

// TestPooledLevelsConcurrentBatch runs concurrent PlanBestCtx calls, each
// forking its own recursion (Parallelism 4), on one BatchSet, so many
// goroutines take and return the same engines' pooled level contexts at
// once. Every plan must be byte-identical to a serial one-shot search;
// under -race this also checks that no context is shared while in use.
func TestPooledLevelsConcurrentBatch(t *testing.T) {
	net := buildNet(t, "inception", 64)
	variants := StrategyAccPar.Variants()
	for i := range variants {
		variants[i].Parallelism = 4
	}
	set, err := NewBatchSet(net, variants...)
	if err != nil {
		t.Fatal(err)
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
		want[i] = planBytes(t, plan)
	}
	const callers = 6
	var wg sync.WaitGroup
	errs := make(chan error, callers*len(trees))
	got := make([][][]byte, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range trees {
				i := (c + k) % len(trees)
				plan, _, err := set.PlanBestCtx(context.Background(), trees[i])
				if err != nil {
					errs <- err
					return
				}
				var buf bytes.Buffer
				if err := plan.WriteJSON(&buf); err != nil {
					errs <- err
					return
				}
				if got[c] == nil {
					got[c] = make([][]byte, len(trees))
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
				t.Errorf("caller %d tree %d: concurrent batch plan diverges from the serial one-shot search", c, i)
			}
		}
	}
}

// TestPlanSurvivesLaterSearches: pooled level contexts are reused by
// every later split, so a finished plan must not alias them. The plan's
// bytes are taken, the same retained planner runs more searches on other
// trees (rewriting every pooled context), and the plan must encode to
// the same bytes again.
func TestPlanSurvivesLaterSearches(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	e, err := NewBatchEngine(net, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pristine := paperTree(t, 4)
	first, err := e.PlanCtx(ctx, pristine)
	if err != nil {
		t.Fatal(err)
	}
	before := planBytes(t, first)
	for _, tree := range []*hardware.Tree{
		paperTree(t, 8),
		homTree(t, hardware.TPUv2(), 16, 64),
		treeFor(t, hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 12}, hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 4}),
	} {
		if _, err := e.PlanCtx(ctx, tree); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.ReplanTimeCtx(ctx, pristine, homTree(t, hardware.TPUv3(), 8, 64)); err != nil {
		t.Fatal(err)
	}
	if after := planBytes(t, first); !bytes.Equal(before, after) {
		t.Error("plan bytes changed after later searches on the same planner: a node aliases pooled scratch")
	}
}
