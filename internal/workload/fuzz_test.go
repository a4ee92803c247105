package workload

import (
	"context"
	"testing"

	"accpar/internal/core"
	"accpar/internal/hardware"
)

// FuzzGenerate drives the generator → extractor → partitioner pipeline with
// arbitrary seeds and bounds, asserting structural invariants everywhere.
// `go test` runs the seed corpus; `go test -fuzz=FuzzGenerate` explores.
func FuzzGenerate(f *testing.F) {
	f.Add(int64(0), 32, 3, 12)
	f.Add(int64(42), 16, 1, 4)
	f.Add(int64(-7), 64, 5, 5)
	f.Add(int64(1<<40), 8, 2, 20)

	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 2},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 2})
	if err != nil {
		f.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, seed int64, batch, minL, maxL int) {
		if batch < 2 || batch > 128 || minL < 1 || maxL < minL || maxL > 24 {
			t.Skip()
		}
		cfg := Config{Batch: batch, MinLayers: minL, MaxLayers: maxL}
		net, err := GenerateNetwork(seed, cfg)
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		if err := net.Validate(); err != nil {
			t.Fatalf("validate: %v", err)
		}
		if n := len(net.Layers()); n < minL || n > maxL {
			t.Fatalf("layer count %d outside [%d,%d]", n, minL, maxL)
		}
		// Edges reference valid units and flow forward.
		units := len(net.Units())
		for _, e := range net.Edges() {
			if e[0] < 0 || e[1] >= units || e[0] >= e[1] {
				t.Fatalf("bad edge %v over %d units", e, units)
			}
		}
		plan, err := core.PartitionCtx(context.Background(), net, tree, core.AccPar())
		if err != nil {
			t.Fatalf("partition: %v", err)
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("plan: %v", err)
		}
		if !(plan.Time() > 0) {
			t.Fatalf("time %g", plan.Time())
		}
	})
}
