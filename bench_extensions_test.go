package accpar

// Benchmarks for the extension experiments and substrates beyond the
// paper's figures: interconnect-topology sensitivity, batch-size scaling,
// the exhaustive search validator, and the trace generator.

import (
	"context"
	"math"
	"testing"

	"accpar/internal/arraysim"
	"accpar/internal/core"
	"accpar/internal/cost"
	"accpar/internal/eval"
	"accpar/internal/models"
	"accpar/internal/trace"
)

// BenchmarkTopologySweep measures the interconnect sensitivity study on
// ResNet-50: AccPar under full-bisection, 2:1-oversubscribed, torus and
// ring fabrics. The reported metric is the ring/full slowdown of AccPar.
func BenchmarkTopologySweep(b *testing.B) {
	var results []eval.TopologyResult
	var err error
	for i := 0; i < b.N; i++ {
		results, _, err = eval.TopologySweep(eval.Config{}, "resnet50")
		if err != nil {
			b.Fatal(err)
		}
	}
	var full, ring float64
	for _, r := range results {
		if r.Scheme == StrategyAccPar {
			switch r.Topology.String() {
			case "full-bisection":
				full = r.Time
			case "ring":
				ring = r.Time
			}
		}
	}
	if full > 0 {
		b.ReportMetric(ring/full, "ring_slowdown")
	}
}

// BenchmarkBatchSweep measures the batch-size scaling study on VGG-16
// (batch 64..1024). The reported metrics are AccPar's speedup at the two
// extremes.
func BenchmarkBatchSweep(b *testing.B) {
	var results []eval.BatchResult
	var err error
	for i := 0; i < b.N; i++ {
		results, _, err = eval.BatchSweep(eval.Config{}, "vgg16", nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range results {
		if r.Scheme == StrategyAccPar && r.Batch == 64 {
			b.ReportMetric(r.Speedup, "accpar_b64")
		}
		if r.Scheme == StrategyAccPar && r.Batch == 1024 {
			b.ReportMetric(r.Speedup, "accpar_b1024")
		}
	}
}

// BenchmarkTraceGeneration measures work-table derivation
// (trace.WorkPair), the form of a trace the simulator prices, for every
// layer of VGG-16 under all three types.
func BenchmarkTraceGeneration(b *testing.B) {
	net, err := models.BuildNetwork("vgg16", 512)
	if err != nil {
		b.Fatal(err)
	}
	units := net.Units()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			if u.Virtual {
				continue
			}
			for _, ty := range cost.Types {
				if _, _, err := trace.WorkPair(u.Dims, ty, 0.5); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkMemoryReport measures plan memory accounting over the full
// 256-leaf hierarchy.
func BenchmarkMemoryReport(b *testing.B) {
	net, err := models.BuildNetwork("vgg16", 512)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := eval.HeterogeneousTree(128)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.PartitionCtx(context.Background(), net, tree, core.StrategyAccPar.Variants()...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := plan.Memory()
		if rep.Leaves == 0 {
			b.Fatal("no leaves")
		}
	}
}

// BenchmarkArraySimulation measures the 256-leaf array-level event-driven
// simulation of VGG-16's AccPar plan (≈25k tasks). The reported metric is
// the simulated/analytic time ratio — how much serialization detail the
// analytic model abstracts away.
func BenchmarkArraySimulation(b *testing.B) {
	net, err := models.BuildNetwork("vgg16", 512)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := eval.HeterogeneousTree(128)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := core.PartitionCtx(context.Background(), net, tree, core.StrategyAccPar.Variants()...)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var res *arraysim.Result
	for i := 0; i < b.N; i++ {
		res, err = arraysim.Simulate(plan, tree, arraysim.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Time/res.AnalyticTime, "sim_vs_analytic")
}

// BenchmarkInferencePartitioning measures forward-only partitioning of the
// nine models on the heterogeneous array, reporting the geomean
// training/inference iteration-time ratio of the AccPar plans.
func BenchmarkInferencePartitioning(b *testing.B) {
	tree, err := eval.HeterogeneousTree(128)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		prod, n := 1.0, 0
		for _, name := range models.EvaluationOrder() {
			net, err := models.BuildNetwork(name, 512)
			if err != nil {
				b.Fatal(err)
			}
			train, err := core.PartitionCtx(context.Background(), net, tree, core.StrategyAccPar.Variants()...)
			if err != nil {
				b.Fatal(err)
			}
			opt := core.AccPar()
			opt.Mode = core.ModeInference
			infer, err := core.PartitionCtx(context.Background(), net, tree, opt)
			if err != nil {
				b.Fatal(err)
			}
			prod *= train.Time() / infer.Time()
			n++
		}
		ratio = math.Pow(prod, 1/float64(n))
	}
	b.ReportMetric(ratio, "train_over_infer")
}
