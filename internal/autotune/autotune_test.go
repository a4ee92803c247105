package autotune

import (
	"testing"

	"accpar/internal/hardware"
	"accpar/internal/models"
)

func smallTree(t *testing.T) *hardware.Tree {
	t.Helper()
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 4},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestTuneBatch(t *testing.T) {
	res, err := TuneBatch("alexnet", smallTree(t), 32, 256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Choices) != 4 {
		t.Fatalf("choices = %d, want 4 (32,64,128,256)", len(res.Choices))
	}
	if !res.Best.MemoryOK || res.Best.Throughput <= 0 {
		t.Errorf("best = %+v", res.Best)
	}
	// Throughput of the best choice beats or matches every feasible choice.
	for _, c := range res.Choices {
		if c.MemoryOK && c.Throughput > res.Best.Throughput*(1+1e-12) {
			t.Errorf("choice %+v beats reported best %+v", c, res.Best)
		}
	}
	// Larger batch takes longer per iteration.
	if res.Choices[0].Time >= res.Choices[3].Time {
		t.Error("iteration time must grow with batch")
	}
}

func TestTuneBatchMemoryGate(t *testing.T) {
	tiny := hardware.TPUv2()
	tiny.HBMBytes = 1 << 26 // 64 MiB: nothing fits
	arr, err := hardware.NewHomogeneous(tiny, 4)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TuneBatch("vgg16", tree, 64, 128, nil); err == nil {
		t.Error("infeasible memory must be reported")
	}
	if _, err := TuneBatch("vgg16", tree, 128, 64, nil); err == nil {
		t.Error("inverted range must be rejected")
	}
}

func TestTuneDepth(t *testing.T) {
	net, err := models.BuildNetwork("vgg11", 128)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 8},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 8})
	if err != nil {
		t.Fatal(err)
	}
	res, err := TuneDepth(net, arr, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 16 accelerators → 4 split levels.
	if len(res.Choices) != 4 {
		t.Fatalf("choices = %d, want 4", len(res.Choices))
	}
	for _, c := range res.Choices {
		if c.Throughput > res.Best.Throughput*(1+1e-12) {
			t.Errorf("choice %+v beats best %+v", c, res.Best)
		}
	}
	// Deeper hierarchies dominate shallow ones for VGG (Figure 8's trend):
	// the best is the full depth.
	if res.Best.Levels != 4 {
		t.Errorf("best depth = %d, want 4 (full)", res.Best.Levels)
	}
}
