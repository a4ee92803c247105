package arraysim

import (
	"context"
	"fmt"
	"math"
	"testing"

	"accpar/internal/core"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

// TestSimulateGolden pins Simulate's results bit for bit: the makespan,
// the busiest leaf's compute time and the busiest link's transfer time
// as math.Float64bits, plus the task count. It covers a chain model
// (vgg16) and a multi-path model (inception) on the 8+8 TPU-v2/v3 fleet,
// whose homogeneous halves link one solved node as both children, and
// vgg16 on a symmetric 8+8 TPU-v3 fleet, where every split is such a
// pair; each with transfer/compute overlap off and on. The envelope and
// ordering tests cannot see a change in how the simulator derives each
// link's and leaf's dims; this one fails on any such change.
func TestSimulateGolden(t *testing.T) {
	for _, c := range []struct {
		model   string
		v2      bool
		overlap bool
		want    string
	}{
		{"vgg16", true, false, "time=3fa221051c763464 compute=3f5d7329898b750f link=3f8e20850e4fd78d tasks=1451"},
		{"vgg16", true, true, "time=3f90f345285eefeb compute=3f5d7329898b750f link=3f8e20850e4fd78d tasks=1451"},
		{"inception", true, false, "time=3f6b4a6fd5e19b8e compute=3f216917a95a9c4d link=3f5555b8d55a4b35 tasks=1948"},
		{"inception", true, true, "time=3f5bb5f1d27ccd74 compute=3f216917a95a9c4d link=3f5555b8d55a4b35 tasks=1948"},
		{"vgg16", false, false, "time=3f9a99b93120b7ee compute=3f4d74a184b5790c link=3f87b9964a6aee72 tasks=1422"},
		{"vgg16", false, true, "time=3f90610bb9ffb2ef compute=3f4d74a184b5790c link=3f87b9964a6aee72 tasks=1422"},
	} {
		left := hardware.TPUv3()
		if c.v2 {
			left = hardware.TPUv2()
		}
		arr, err := hardware.NewHeterogeneous(
			hardware.GroupSpec{Spec: left, Count: 8},
			hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 8})
		if err != nil {
			t.Fatal(err)
		}
		tree, err := hardware.BuildTree(arr, 64)
		if err != nil {
			t.Fatal(err)
		}
		net, err := models.BuildNetwork(c.model, 64)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := core.PartitionCtx(context.Background(), net, tree, core.AccPar())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(plan, tree, Config{OverlapComm: c.overlap})
		if err != nil {
			t.Fatalf("%s: %v", c.model, err)
		}
		got := fmt.Sprintf("time=%x compute=%x link=%x tasks=%d",
			math.Float64bits(res.Time), math.Float64bits(res.ComputeBusyMax), math.Float64bits(res.LinkBusyMax), res.Tasks)
		if got != c.want {
			t.Errorf("%s v2=%v overlap=%v:\n got %s\nwant %s", c.model, c.v2, c.overlap, got, c.want)
		}
	}
}
