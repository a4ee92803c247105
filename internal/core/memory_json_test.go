package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/optimizer"
)

func TestMemoryReportFits(t *testing.T) {
	net := buildNet(t, "vgg16", 64)
	plan, err := PartitionCtx(context.Background(), net, paperTree(t, 8), StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	rep := plan.Memory()
	if rep.Leaves == 0 {
		t.Fatal("no leaves inspected")
	}
	if rep.PeakResidencyBytes <= 0 {
		t.Error("peak residency must be positive")
	}
	if !rep.OK {
		t.Errorf("VGG-16/64 sharded over 16 boards must fit 64GB HBM: %s", rep)
	}
	if !strings.Contains(rep.String(), "fits") {
		t.Errorf("report rendering: %s", rep)
	}
}

// TestMemoryReportOverflow: a starved accelerator triggers the overflow
// path.
func TestMemoryReportOverflow(t *testing.T) {
	tiny := hardware.TPUv2()
	tiny.HBMBytes = 1 << 20 // 1 MiB
	arr, err := hardware.NewHomogeneous(tiny, 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 4)
	if err != nil {
		t.Fatal(err)
	}
	net := buildNet(t, "alexnet", 64)
	plan, err := PartitionCtx(context.Background(), net, tree, DataParallel())
	if err != nil {
		t.Fatal(err)
	}
	rep := plan.Memory()
	if rep.OK {
		t.Fatal("61M-parameter AlexNet cannot fit 1 MiB HBM under data parallelism")
	}
	if len(rep.Overflow) == 0 {
		t.Error("overflow groups must be listed")
	}
	if !strings.Contains(rep.String(), "OVERFLOWS") {
		t.Errorf("report rendering: %s", rep)
	}
}

// TestShardingReducesResidency: Type-II model sharding shrinks the peak
// kernel residency versus Type-I replication on the same array.
func TestShardingReducesResidency(t *testing.T) {
	net := buildNet(t, "vgg16", 8)
	tree := paperTree(t, 8)
	dp, err := PartitionCtx(context.Background(), net, tree, DataParallel())
	if err != nil {
		t.Fatal(err)
	}
	modelPar := Options{
		Objective: ObjectiveTime,
		Ratio:     RatioEqual,
		Fixed: func(dnn.WeightedLayer) (cost.Type, bool) {
			return cost.TypeII, true
		},
	}
	mp, err := PartitionCtx(context.Background(), net, tree, modelPar)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Memory().PeakResidencyBytes >= dp.Memory().PeakResidencyBytes {
		t.Errorf("Type-II residency %d not below Type-I %d",
			mp.Memory().PeakResidencyBytes, dp.Memory().PeakResidencyBytes)
	}
}

// TestOptimizerStateInResidency: Adam's plan carries more resident bytes
// than SGD's.
func TestOptimizerStateInResidency(t *testing.T) {
	net := buildNet(t, "alexnet", 16)
	tree := paperTree(t, 4)
	sgd := DataParallel()
	adam := DataParallel()
	adam.Optimizer = optimizer.Adam
	p1, err := PartitionCtx(context.Background(), net, tree, sgd)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PartitionCtx(context.Background(), net, tree, adam)
	if err != nil {
		t.Fatal(err)
	}
	if p2.Memory().PeakResidencyBytes <= p1.Memory().PeakResidencyBytes {
		t.Error("Adam state must increase residency")
	}
	if p2.Time() <= p1.Time() {
		t.Error("Adam updates must increase iteration time")
	}
}

func TestPlanJSONRoundTrip(t *testing.T) {
	net := buildNet(t, "resnet18", 16)
	plan, err := PartitionCtx(context.Background(), net, paperTree(t, 4), StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := plan.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadPlanJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Network != "resnet18" || decoded.Batch != 16 {
		t.Errorf("decoded header: %+v", decoded)
	}
	if decoded.TimeSec != plan.Time() {
		t.Errorf("decoded time %g != %g", decoded.TimeSec, plan.Time())
	}
	types, err := decoded.TypesOf()
	if err != nil {
		t.Fatal(err)
	}
	if len(types) != len(plan.Root.Types) {
		t.Fatalf("decoded %d types, want %d", len(types), len(plan.Root.Types))
	}
	for i := range types {
		if types[i] != plan.Root.Types[i] {
			t.Errorf("type %d: %v != %v", i, types[i], plan.Root.Types[i])
		}
	}
	if decoded.Root.Left == nil || decoded.Root.Right == nil {
		t.Error("tree structure lost in serialization")
	}
}

func TestReadPlanJSONErrors(t *testing.T) {
	if _, err := ReadPlanJSON(strings.NewReader("{")); err == nil {
		t.Error("truncated JSON must error")
	}
	if _, err := ReadPlanJSON(strings.NewReader("{}")); err == nil {
		t.Error("missing root must error")
	}
	if _, err := ParseTypeShort("IV"); err == nil {
		t.Error("unknown label must error")
	}
	for _, s := range []string{"I", "II", "III"} {
		if _, err := ParseTypeShort(s); err != nil {
			t.Errorf("ParseTypeShort(%q): %v", s, err)
		}
	}
}
