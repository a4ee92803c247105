package arraysim

import (
	"context"
	"math"
	"runtime"
	"testing"

	"accpar/internal/core"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

func planAndTree(t *testing.T, model string, batch, perKind int, opt core.Options) (*core.Plan, *hardware.Tree) {
	t.Helper()
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: perKind},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: perKind})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.BuildNetwork(model, batch)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.PartitionCtx(context.Background(), net, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	return plan, tree
}

func TestSimulateBasic(t *testing.T) {
	plan, tree := planAndTree(t, "alexnet", 64, 8, core.AccPar())
	res, err := Simulate(plan, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Time > 0) || math.IsNaN(res.Time) {
		t.Fatalf("time = %g", res.Time)
	}
	if res.Leaves != 16 || res.Links != 15 {
		t.Errorf("leaves/links = %d/%d, want 16/15", res.Leaves, res.Links)
	}
	if res.Tasks == 0 {
		t.Fatal("no tasks")
	}
	if res.AnalyticTime != plan.Time() {
		t.Error("analytic time not carried through")
	}
}

// TestSimulatedWithinAnalyticEnvelope: without overlap, the event-driven
// makespan stays within a small factor of the analytic estimate — the two
// models describe the same execution, differing only in pipelining and
// serialization detail.
func TestSimulatedWithinAnalyticEnvelope(t *testing.T) {
	for _, model := range []string{"lenet", "alexnet", "resnet18"} {
		for _, opt := range []core.Options{core.DataParallel(), core.AccPar()} {
			plan, tree := planAndTree(t, model, 64, 4, opt)
			res, err := Simulate(plan, tree, Config{})
			if err != nil {
				t.Fatalf("%s: %v", model, err)
			}
			ratio := res.Time / res.AnalyticTime
			if ratio < 0.2 || ratio > 5 {
				t.Errorf("%s: simulated %.4g vs analytic %.4g (ratio %.2f) outside [0.2,5]",
					model, res.Time, res.AnalyticTime, ratio)
			}
		}
	}
}

// TestOverlapNeverSlower: allowing transfer/compute overlap can only help.
func TestOverlapNeverSlower(t *testing.T) {
	plan, tree := planAndTree(t, "vgg11", 64, 4, core.AccPar())
	serial, err := Simulate(plan, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	overlap, err := Simulate(plan, tree, Config{OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	if overlap.Time > serial.Time*(1+1e-9) {
		t.Errorf("overlap %.4g slower than serial %.4g", overlap.Time, serial.Time)
	}
}

// TestSchemeOrderingPreserved: the array-level simulation agrees with the
// analytic model on who wins between DP and AccPar.
func TestSchemeOrderingPreserved(t *testing.T) {
	for _, model := range []string{"alexnet", "vgg11", "resnet18"} {
		dpPlan, tree := planAndTree(t, model, 64, 4, core.DataParallel())
		accPlan, _ := planAndTree(t, model, 64, 4, core.AccPar())
		dp, err := Simulate(dpPlan, tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := Simulate(accPlan, tree, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if acc.Time >= dp.Time {
			t.Errorf("%s: array-sim AccPar %.4g not faster than DP %.4g", model, acc.Time, dp.Time)
		}
	}
}

// TestMultiPathArraySim: ResNet plans simulate without ordering errors.
func TestMultiPathArraySim(t *testing.T) {
	plan, tree := planAndTree(t, "resnet50", 32, 2, core.AccPar())
	res, err := Simulate(plan, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Time > 0) {
		t.Errorf("time = %g", res.Time)
	}
}

// TestLeafCapEnforced: a plan over more than maxLeaves leaves is refused
// before any of its graph is built, so the refusal costs next to nothing
// however large the tree.
func TestLeafCapEnforced(t *testing.T) {
	plan, tree := planAndTree(t, "resnet50", 16, maxLeaves/2+1, core.DataParallel())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Simulate(plan, tree, Config{})
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("leaf cap must be enforced")
	}
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes >= 1<<20 {
		t.Errorf("refusing %d+ leaves allocated %d bytes, want < 1 MB", maxLeaves+2, bytes)
	}
}

// TestDeterministic: repeated simulation is bit-identical.
func TestDeterministic(t *testing.T) {
	plan, tree := planAndTree(t, "resnet18", 32, 4, core.AccPar())
	a, err := Simulate(plan, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(plan, tree, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Tasks != b.Tasks {
		t.Error("nondeterministic array simulation")
	}
}

// TestTopologyMatters: a ring interconnect slows the simulated iteration
// relative to full bisection.
func TestTopologyMatters(t *testing.T) {
	plan, tree := planAndTree(t, "vgg11", 64, 8, core.DataParallel())
	full, err := Simulate(plan, tree, Config{Topology: hardware.FullBisection})
	if err != nil {
		t.Fatal(err)
	}
	ring, err := Simulate(plan, tree, Config{Topology: hardware.Ring})
	if err != nil {
		t.Fatal(err)
	}
	if ring.Time <= full.Time {
		t.Errorf("ring %.4g not slower than full bisection %.4g", ring.Time, full.Time)
	}
}

// TestMismatchedTreesRejected: a plan simulated against a different
// hardware shape errors instead of silently misattributing resources.
func TestMismatchedTreesRejected(t *testing.T) {
	plan, _ := planAndTree(t, "lenet", 16, 4, core.DataParallel())
	otherArr, err := hardware.NewHomogeneous(hardware.TPUv3(), 4)
	if err != nil {
		t.Fatal(err)
	}
	otherTree, err := hardware.BuildTree(otherArr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(plan, otherTree, Config{}); err == nil {
		t.Error("mismatched tree shapes must be rejected")
	}
}
