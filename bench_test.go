package accpar

// This file is the benchmark harness required by the reproduction: one
// benchmark per table and figure of the paper's evaluation section.
// Each benchmark regenerates the experiment at paper scale (batch 512,
// 128 TPU-v2 + 128 TPU-v3 heterogeneous array, 256 TPU-v3 homogeneous
// array) and reports the headline quantities as custom metrics:
//
//	go test -bench=. -benchmem
//
// The per-iteration wall time measures the partitioning search itself —
// the paper's O(N) layer-wise dynamic programming — while the custom
// metrics carry the reproduced speedups (geomean_*, the rows of the
// figures). EXPERIMENTS.md records paper-vs-measured for every entry.

import (
	"context"
	"math"
	"testing"

	"accpar/internal/autotune"
	"accpar/internal/core"
	"accpar/internal/dnn"
	"accpar/internal/eval"
	"accpar/internal/models"
)

// reportGeomeans attaches the four schemes' geometric-mean speedups.
func reportGeomeans(b *testing.B, fr *eval.FigureResult) {
	b.Helper()
	b.ReportMetric(fr.Geomean[StrategyOWT], "geomean_owt")
	b.ReportMetric(fr.Geomean[StrategyHyPar], "geomean_hypar")
	b.ReportMetric(fr.Geomean[StrategyAccPar], "geomean_accpar")
}

// BenchmarkFigure5Heterogeneous regenerates Figure 5: the speedup of DP,
// OWT, HyPar and AccPar on the heterogeneous 128×TPU-v2 + 128×TPU-v3
// array across the nine evaluation DNNs (paper geomeans: 1.00×, 2.98×,
// 3.78×, 6.30×).
func BenchmarkFigure5Heterogeneous(b *testing.B) {
	var fr *eval.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		fr, err = eval.Figure5(eval.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportGeomeans(b, fr)
	b.Logf("\n%s", fr.Table)
}

// BenchmarkFigure6Homogeneous regenerates Figure 6: the same sweep on a
// homogeneous 256×TPU-v3 array (paper geomeans: 1.00×, 2.94×, 3.51×,
// 3.86×).
func BenchmarkFigure6Homogeneous(b *testing.B) {
	var fr *eval.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		fr, err = eval.Figure6(eval.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	reportGeomeans(b, fr)
	b.Logf("\n%s", fr.Table)
}

// BenchmarkFigure7AlexnetTypes regenerates Figure 7: AccPar's selected
// partition types for AlexNet's weighted layers across 7 hierarchy levels
// at batch 128. The reported metrics count how many (level, layer)
// decisions use each type; the paper's qualitative claims are: FC layers
// use Type-II/III, CONV layers mostly but not solely Type-I.
func BenchmarkFigure7AlexnetTypes(b *testing.B) {
	var plan *core.Plan
	var rendered string
	var err error
	for i := 0; i < b.N; i++ {
		plan, rendered, err = eval.Figure7()
		if err != nil {
			b.Fatal(err)
		}
	}
	hist := plan.TypeHistogram()
	b.ReportMetric(float64(hist[0]), "type_I")
	b.ReportMetric(float64(hist[1]), "type_II")
	b.ReportMetric(float64(hist[2]), "type_III")
	b.Logf("\n%s", rendered)
}

// BenchmarkFigure8Hierarchy regenerates Figure 8: speedup versus hierarchy
// level h = 2..9 for Vgg19 on the heterogeeneous array. The paper's claim:
// OWT and HyPar saturate while AccPar keeps increasing; the reported
// metrics are AccPar's speedup at h=2 and h=9.
func BenchmarkFigure8Hierarchy(b *testing.B) {
	var fr *eval.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		fr, err = eval.Figure8(eval.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	acc := fr.Series[StrategyAccPar].Y
	b.ReportMetric(acc[0], "accpar_h2")
	b.ReportMetric(acc[len(acc)-1], "accpar_h9")
	b.Logf("\n%s", fr.Table)
}

// BenchmarkTable8Flexibility regenerates Table 8: the flexibility ordering
// DP ≺ OWT ≺ HyPar ≺ AccPar, quantified as the number of distinct
// (model, layer, type) configurations each scheme selects. Table 8 reads
// the Figure 5 sweep, so each iteration runs that sweep and counts.
func BenchmarkTable8Flexibility(b *testing.B) {
	var rows []eval.FlexibilityRow
	for i := 0; i < b.N; i++ {
		fr, err := eval.Figure5(eval.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rows, _ = eval.Table8(fr.Results)
	}
	b.ReportMetric(float64(rows[0].DistinctConfigs), "configs_dp")
	b.ReportMetric(float64(rows[3].DistinctConfigs), "configs_accpar")
}

// benchAblation measures the geomean slowdown of removing one design
// element from AccPar across the nine models on the heterogeneous array.
// The ablations read the Figure 5 sweep, so each iteration runs that
// sweep and reads them off it.
func benchAblation(b *testing.B, a eval.Ablation) {
	var results []eval.AblationResult
	for i := 0; i < b.N; i++ {
		fr, err := eval.Figure5(eval.Config{})
		if err != nil {
			b.Fatal(err)
		}
		results, _ = eval.RunAblations(fr.Results)
	}
	prod, n := 1.0, 0
	for _, r := range results {
		if r.Ablation == a {
			prod *= r.Slowdown
			n++
		}
	}
	if n > 0 {
		b.ReportMetric(math.Pow(prod, 1/float64(n)), "geomean_slowdown")
	}
}

// BenchmarkAblationCommOnly quantifies the cost of HyPar's
// communication-as-proxy objective inside AccPar's search (DESIGN.md
// ablation 1).
func BenchmarkAblationCommOnly(b *testing.B) { benchAblation(b, eval.AblationCommOnly) }

// BenchmarkAblationTwoTypes quantifies the value of Type-III — the
// partition overlooked by OWT and HyPar (DESIGN.md ablation 2).
func BenchmarkAblationTwoTypes(b *testing.B) { benchAblation(b, eval.AblationTwoTypes) }

// BenchmarkAblationEqualRatio quantifies heterogeneity-aware ratio
// balancing (DESIGN.md ablation 3).
func BenchmarkAblationEqualRatio(b *testing.B) { benchAblation(b, eval.AblationEqualRatio) }

// BenchmarkAblationLinearized quantifies native multi-path search versus
// flattening (DESIGN.md ablation 4).
func BenchmarkAblationLinearized(b *testing.B) { benchAblation(b, eval.AblationLinearized) }

// BenchmarkPartitionSearch measures the partitioning search itself on the
// largest model (ResNet-50, 54 weighted layers, full 256-accelerator
// hierarchy) — the paper's complexity claim is O(N) per hierarchy level.
func BenchmarkPartitionSearch(b *testing.B) {
	net, err := models.BuildNetwork("resnet50", 512)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := eval.HeterogeneousTree(128)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PartitionCtx(context.Background(), net, tree, core.AccPar()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortfolioSearch measures the production AccPar portfolio, the
// nine option sets of StrategyAccPar.Variants searched in turn, on the
// same inputs as BenchmarkPartitionSearch, without a cache.
func BenchmarkPortfolioSearch(b *testing.B) {
	net, err := models.BuildNetwork("resnet50", 512)
	if err != nil {
		b.Fatal(err)
	}
	tree, err := eval.HeterogeneousTree(128)
	if err != nil {
		b.Fatal(err)
	}
	variants := core.StrategyAccPar.Variants()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PartitionCtx(context.Background(), net, tree, variants...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompareCold measures a four-strategy comparison on a fresh
// Session per op (a cold plan cache, as a one-off /v1/compare or accpar
// -compare sees it) on the paper array at batch 512.
func BenchmarkCompareCold(b *testing.B) {
	arr, err := HeterogeneousArray(ArrayGroup{Spec: TPUv2(), Count: 128}, ArrayGroup{Spec: TPUv3(), Count: 128})
	if err != nil {
		b.Fatal(err)
	}
	for _, model := range []string{"resnet50", "vgg16"} {
		net, err := BuildModel(model, 512)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(model, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := NewSession(0).Compare(net, arr); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorVGG measures the trace-driven discrete-event simulator
// on VGG-16 at batch 512 over a v2/v3 group pair.
func BenchmarkSimulatorVGG(b *testing.B) {
	net, err := BuildModel("vgg16", 512)
	if err != nil {
		b.Fatal(err)
	}
	arr, err := HeterogeneousArray(ArrayGroup{Spec: TPUv2(), Count: 128}, ArrayGroup{Spec: TPUv3(), Count: 128})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := Partition(net, arr, StrategyAccPar)
	if err != nil {
		b.Fatal(err)
	}
	ma := GroupMachine(TPUv2(), 128)
	mb := GroupMachine(TPUv3(), 128)
	b.ResetTimer()
	var res *SimResult
	for i := 0; i < b.N; i++ {
		res, err = Simulate(net, plan.Root.Types, plan.Root.Alpha, ma, mb, SimConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Time*1e3, "sim_ms_per_iter")
}

// cachedSweep is a parameter study that plans on a caller's plan cache.
type cachedSweep struct {
	name string
	run  func(cache *core.SharedCache) error
}

// cachedSweeps are the repeated studies a plan cache kept across runs
// exists for, on the paper array: the ResNet-50 row of Figure 5 (four
// strategies) and the ResNet-50 batch-size tuning sweep from 64 to 512.
func cachedSweeps(tb testing.TB) []cachedSweep {
	tb.Helper()
	tree, err := eval.HeterogeneousTree(128)
	if err != nil {
		tb.Fatal(err)
	}
	return []cachedSweep{
		{"speedup-sweep", func(cache *core.SharedCache) error {
			_, err := eval.SpeedupSweep(context.Background(), tree, []string{"resnet50"}, 512, cache)
			return err
		}},
		{"tune-batch", func(cache *core.SharedCache) error {
			_, err := autotune.TuneBatch("resnet50", tree, 64, 512, cache)
			return err
		}},
	}
}

// TestWarmSweepsSolveNothing: a study repeated on the cache its first run
// filled is served whole from it, with no subproblem solved again.
func TestWarmSweepsSolveNothing(t *testing.T) {
	for _, s := range cachedSweeps(t) {
		cache := core.NewSharedCache(0)
		if err := s.run(cache); err != nil {
			t.Fatal(err)
		}
		cold := cache.Stats()
		if err := s.run(cache); err != nil {
			t.Fatal(err)
		}
		warm := cache.Stats()
		t.Logf("%s: cold run %d misses; warm run %d hits, %d misses", s.name, cold.Misses, warm.Hits-cold.Hits, warm.Misses-cold.Misses)
		if cold.Misses == 0 {
			t.Errorf("%s: the first run solved nothing on the cache", s.name)
		}
		if warm.Misses != cold.Misses || warm.Hits == cold.Hits {
			t.Errorf("%s: warm run solved %d subproblems and hit %d; want 0 solved", s.name, warm.Misses-cold.Misses, warm.Hits-cold.Hits)
		}
	}
}

// BenchmarkCachedSweeps times each cached study cold, on a fresh cache
// per op, and warm, on the cache a first run filled.
func BenchmarkCachedSweeps(b *testing.B) {
	for _, s := range cachedSweeps(b) {
		b.Run(s.name+"/cold", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.run(core.NewSharedCache(0)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(s.name+"/warm", func(b *testing.B) {
			cache := core.NewSharedCache(0)
			if err := s.run(cache); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.run(cache); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelZoo measures building the networks of the nine evaluation
// models at batch 512. "network" times models.BuildNetwork, which clones
// a per-model template; "graph" times the construction path the template
// is built by once, graph build plus dnn.ExtractNetwork.
func BenchmarkModelZoo(b *testing.B) {
	names := models.EvaluationOrder()
	b.Run("network", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, n := range names {
				if _, err := models.BuildNetwork(n, 512); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, n := range names {
				g, err := models.Build(n, 512)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dnn.ExtractNetwork(g); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
