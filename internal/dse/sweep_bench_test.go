package dse

import (
	"context"
	"testing"

	"accpar/internal/hardware"
)

// benchSpace is plannerbench's dse-sweep grid: two kinds, counts 0/4/8,
// five level caps and two link tiers — 80 candidates of ResNet-50/512.
func benchSpace() *Space {
	return &Space{
		Kinds: []Kind{
			{Name: "tpu-v2", Spec: hardware.TPUv2(), Price: 1.0},
			{Name: "tpu-v3", Spec: hardware.TPUv3(), Price: 2.2},
		},
		Counts:    []int{0, 4, 8},
		Levels:    []int{2, 8, 16, 32, 64},
		NetScales: []float64{1, 2},
	}
}

// benchConfig sweeps the grid under a 2× slowdown of the TPU-v2 kind.
func benchConfig() Config {
	return Config{Model: "resnet50", Batch: 512, Fault: "slowdown:0=2.0"}
}

// BenchmarkSweep times one fresh sweep of the dse-sweep grid per op.
func BenchmarkSweep(b *testing.B) {
	space, cfg := benchSpace(), benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Sweep(context.Background(), space, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
