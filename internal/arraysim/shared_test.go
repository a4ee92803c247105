package arraysim

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"accpar/internal/core"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

// deepCopy returns a private copy of a plan tree, in which no node
// appears twice.
func deepCopy(n *core.PlanNode) *core.PlanNode {
	if n == nil {
		return nil
	}
	c := *n
	c.Left, c.Right = deepCopy(n.Left), deepCopy(n.Right)
	return &c
}

// sharedSiblingPlan plans vgg16/64 on 4×TPU-v2 + 4×TPU-v3 with equal
// ratios and one worker. Each homogeneous half splits 50/50 under one
// type vector, so both of its children pose the same subproblem: the
// right one is a memo hit and links the left one's node.
func sharedSiblingPlan(t *testing.T) (*core.Plan, *hardware.Tree) {
	t.Helper()
	opt := core.AccPar()
	opt.Ratio = core.RatioEqual
	opt.Parallelism = 1
	plan, tree := planAndTree(t, "vgg16", 64, 4, opt)
	for _, half := range []*core.PlanNode{plan.Root.Left, plan.Root.Right} {
		if half.Left != half.Right {
			t.Fatalf("%s: children are distinct nodes; the test needs a shared pair", half.GroupDesc)
		}
	}
	return plan, tree
}

// TestSharedSiblingsSimulateLikeCopies: a plan whose split links one
// node as both children simulates exactly like its deep copy. Leaf spans
// are positional, so the shared node's two positions keep their own
// leaves.
func TestSharedSiblingsSimulateLikeCopies(t *testing.T) {
	plan, tree := sharedSiblingPlan(t)
	copied := *plan
	copied.Root = deepCopy(plan.Root)
	for _, cfg := range []Config{{}, {OverlapComm: true}, {Topology: hardware.Ring}} {
		got, err := Simulate(plan, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := Simulate(&copied, tree, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if *got != *want {
			t.Errorf("%+v: shared plan %+v, deep copy %+v", cfg, *got, *want)
		}
	}
}

// TestSharedPlansConcurrentReaders (run under -race): two plans served
// from one SharedCache share every node, and each links shared siblings
// within itself. Both are encoded, simulated and explained concurrently
// while further searches run on the same cache; every encoding must match
// a plan searched serially without a cache.
func TestSharedPlansConcurrentReaders(t *testing.T) {
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 8},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.BuildNetwork("resnet18", 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opt := core.AccPar()
	fresh, err := core.PartitionCtx(ctx, net, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantSim, err := Simulate(fresh, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}

	opt.Cache = core.NewSharedCache(0)
	a, err := core.PartitionCtx(ctx, net, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.PartitionCtx(ctx, net, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Root != b.Root {
		t.Fatal("a whole-plan cache hit did not link the cached root")
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	read := func(plan *core.Plan) {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			got, err := plan.AppendJSON(nil)
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, want) {
				errs <- fmt.Errorf("encoding differs from the serial cacheless plan")
			}
			res, err := Simulate(plan, tree, Config{})
			if err != nil {
				errs <- err
				return
			}
			if *res != *wantSim {
				errs <- fmt.Errorf("simulation %+v, serial cacheless plan %+v", *res, *wantSim)
			}
			if _, err := plan.Explain(); err != nil {
				errs <- err
				return
			}
		}
	}
	search := func(batch int) {
		defer wg.Done()
		n, err := models.BuildNetwork("resnet18", batch)
		if err != nil {
			errs <- err
			return
		}
		for i := 0; i < 2; i++ {
			if _, err := core.PartitionCtx(ctx, n, tree, opt); err != nil {
				errs <- err
				return
			}
		}
	}
	for _, plan := range []*core.Plan{a, b, a, b} {
		wg.Add(1)
		go read(plan)
	}
	for _, batch := range []int{64, 32, 128} {
		wg.Add(1)
		go search(batch)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
