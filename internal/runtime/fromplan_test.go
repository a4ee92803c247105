package runtime

import (
	"context"
	"testing"

	"accpar/internal/core"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

// TestPlanExecutesNumerically: partition the all-FC "mlp" model with every
// strategy, convert each plan's root split into a distributed chain,
// execute it with real arithmetic on two workers, and verify the results
// against the unpartitioned reference — the planner's decisions are not
// just cheap, they are *correct*.
func TestPlanExecutesNumerically(t *testing.T) {
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 1},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.BuildNetwork("mlp", 4)
	if err != nil {
		t.Fatal(err)
	}
	for label, opt := range map[string]core.Options{
		"dp": core.DataParallel(), "owt": core.OWT(), "hypar": core.HyPar(), "accpar": core.AccPar(),
	} {
		plan, err := core.PartitionCtx(context.Background(), net, tree, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		chain, err := ChainFromPlan(plan)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(chain.Layers) != 5 {
			t.Fatalf("%s: chain has %d layers, want 5", label, len(chain.Layers))
		}
		f0, weights, eLast := buildInputs(chain, 11)
		dist, fabric, err := Run(chain, f0, weights, eLast)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ref, err := Reference(chain, f0, weights, eLast)
		if err != nil {
			t.Fatal(err)
		}
		// Absolute magnitudes through the 4096-wide chain reach ~1e9, so
		// float64 reassociation leaves ~1e-7 absolute noise; 1e-4 is a
		// comfortably tight relative bound.
		if dev := maxDeviation(dist, ref); dev > 1e-4 {
			t.Errorf("%s: plan execution deviates %g from reference", label, dev)
		}
		if fabric.TotalElements() == 0 {
			t.Errorf("%s: plan execution moved no bytes", label)
		}
	}
}

// TestChainFromPlanRejections: unsupported networks are refused cleanly.
func TestChainFromPlanRejections(t *testing.T) {
	arr, err := hardware.NewHomogeneous(hardware.TPUv3(), 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	conv, err := models.BuildNetwork("lenet", 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.PartitionCtx(context.Background(), conv, tree, core.AccPar())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChainFromPlan(plan); err == nil {
		t.Error("conv model must be rejected")
	}
	res, err := models.BuildNetwork("resnet18", 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = core.PartitionCtx(context.Background(), res, tree, core.AccPar())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChainFromPlan(plan); err == nil {
		t.Error("multi-path model must be rejected")
	}
	// Single-accelerator plan has no split.
	one, err := hardware.NewHomogeneous(hardware.TPUv3(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := hardware.BuildTree(one, 4)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := models.BuildNetwork("mlp", 8)
	if err != nil {
		t.Fatal(err)
	}
	plan, err = core.PartitionCtx(context.Background(), mlp, t1, core.AccPar())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ChainFromPlan(plan); err == nil {
		t.Error("leaf-only plan must be rejected")
	}
}
