// Package eval reproduces every experiment of the paper's evaluation
// (Section 6): Figure 5 (heterogeneous-array speedups), Figure 6
// (homogeneous-array speedups), Figure 7 (selected partition types per
// AlexNet layer across hierarchy levels), Figure 8 (scalability with
// hierarchy levels on Vgg19), Table 8 (flexibility comparison), and the
// headline geometric-mean speedups, plus the ablation studies motivated by
// the paper's design arguments.
package eval

import (
	"context"
	"fmt"

	"accpar/internal/core"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/obs"
	"accpar/internal/parallel"
	"accpar/internal/report"
)

// portfolio runs the AccPar portfolio once on net and tree: every option
// set of StrategyAccPar.Variants searches through cache (nil: a private
// memo; plans are byte-identical either way), after set, when non-nil,
// adjusts it. The variants include the three baselines and every
// ablation, so this one run answers each strategy (Strategy.Variant) and
// each ablation (Ablation.Variant).
func portfolio(ctx context.Context, net *dnn.Network, tree *hardware.Tree, cache *core.SharedCache, set func(*core.Options)) ([]*core.Plan, int, error) {
	opts := core.StrategyAccPar.Variants()
	for i := range opts {
		opts[i].Cache = cache
		if set != nil {
			set(&opts[i])
		}
	}
	return core.PartitionAllCtx(ctx, net, tree, opts...)
}

// measure is one portfolio run, labelled label, with every strategy's
// time and speedup over DP. Its callers plan without a memory limit, so
// every variant has a plan; any error returns no result.
func measure(ctx context.Context, label string, net *dnn.Network, tree *hardware.Tree, cache *core.SharedCache, set func(*core.Options)) (ModelResult, error) {
	plans, winner, err := portfolio(ctx, net, tree, cache, set)
	if err != nil {
		return ModelResult{}, err
	}
	r := ModelResult{Model: label, Variants: plans, Winner: winner, Time: map[core.Strategy]float64{}, Speedup: map[core.Strategy]float64{}}
	for _, s := range core.Strategies {
		r.Time[s] = r.Plan(s).Time()
	}
	for _, s := range core.Strategies {
		r.Speedup[s] = r.Time[core.StrategyDP] / r.Time[s]
	}
	return r, nil
}

// Config sizes the experiments. The zero value is upgraded to the paper's
// setup by withDefaults: batch 512, 128 TPU-v2 + 128 TPU-v3 heterogeneous
// array, 256 TPU-v3 homogeneous array, all nine models.
type Config struct {
	Batch   int
	PerKind int
	HomSize int
	Models  []string
}

func (c Config) withDefaults() Config {
	if c.Batch == 0 {
		c.Batch = 512
	}
	if c.PerKind == 0 {
		c.PerKind = 128
	}
	if c.HomSize == 0 {
		c.HomSize = 256
	}
	if len(c.Models) == 0 {
		c.Models = models.EvaluationOrder()
	}
	return c
}

// HeterogeneousTree builds the paper's evaluation array: perKind TPU-v2
// plus perKind TPU-v3, fully split.
func HeterogeneousTree(perKind int) (*hardware.Tree, error) {
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: perKind},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: perKind})
	if err != nil {
		return nil, err
	}
	return hardware.BuildTree(arr, 64)
}

// ModelResult is one model's outcome across the four schemes: its AccPar
// portfolio run and what each scheme's plan in it costs.
type ModelResult struct {
	Model string
	// Variants is every plan of the run, indexed like
	// core.StrategyAccPar.Variants, and Winner indexes the fastest. A
	// scheme's plan is Variants[Strategy.Variant(Winner)] (Plan), an
	// ablation's Variants[Ablation.Variant()].
	Variants []*core.Plan
	Winner   int
	// Time is modelled per-iteration time per scheme, seconds.
	Time map[core.Strategy]float64
	// Speedup is normalized to DP, the paper's baseline.
	Speedup map[core.Strategy]float64
}

// Plan returns the scheme's plan.
func (r ModelResult) Plan(s core.Strategy) *core.Plan { return r.Variants[s.Variant(r.Winner)] }

// SpeedupSweep partitions every model with every scheme on the tree and
// normalizes to data parallelism. Each model is one AccPar portfolio run,
// whose variants include the three baselines and the ablations, so its
// result answers all four schemes, Table8 and RunAblations. The models
// are independent searches, so they run across a worker pool; each
// model's result lands in its own slot, so the returned order (and on
// error, the reported model) matches the serial sweep exactly. Every
// search seeds from and feeds cache (nil for the uncached sweep), so a
// warm cache turns a repeated sweep, such as a parameter study, into
// lookups. ctx bounds the searches and may carry a request-scoped tracer
// (obs.WithTracer): per-model sweep spans land in that tracer, so
// concurrent sweeps each trace in isolation.
func SpeedupSweep(ctx context.Context, tree *hardware.Tree, modelNames []string, batch int, cache *core.SharedCache) ([]ModelResult, error) {
	out := make([]ModelResult, len(modelNames))
	err := parallel.ForEach(len(modelNames), 0, func(i int) error {
		name := modelNames[i]
		if obs.TracingCtx(ctx) {
			sp := obs.StartSpanCtx(ctx, "eval", "sweep/"+name)
			defer sp.End()
		}
		net, err := models.BuildNetwork(name, batch)
		if err != nil {
			return fmt.Errorf("eval: %s: %w", name, err)
		}
		if out[i], err = measure(ctx, name, net, tree, cache, nil); err != nil {
			return fmt.Errorf("eval: %s: %w", name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FigureResult bundles a rendered table, per-scheme speedup series and
// geometric means.
type FigureResult struct {
	Name    string
	Table   *report.Table
	Series  map[core.Strategy]*report.Series
	Geomean map[core.Strategy]float64
	Results []ModelResult
}

// render assembles the presentation pieces from sweep results: one table
// row and one series point per result, labelled by its Model, under the
// x label xlabel.
func render(name, xlabel string, results []ModelResult) *FigureResult {
	fr := &FigureResult{
		Name:    name,
		Table:   report.NewTable(name, xlabel, "DP", "OWT", "HyPar", "AccPar"),
		Series:  map[core.Strategy]*report.Series{},
		Geomean: map[core.Strategy]float64{},
		Results: results,
	}
	for _, s := range core.Strategies {
		fr.Series[s] = &report.Series{Name: s.String(), XLabel: xlabel, YLabel: "speedup vs DP"}
	}
	for _, r := range results {
		fr.Table.AddFloatRow(r.Model, 2, r.Speedup[core.StrategyDP], r.Speedup[core.StrategyOWT], r.Speedup[core.StrategyHyPar], r.Speedup[core.StrategyAccPar])
		for _, s := range core.Strategies {
			fr.Series[s].Add(r.Model, r.Speedup[s])
		}
	}
	for _, s := range core.Strategies {
		var vals []float64
		for _, r := range results {
			vals = append(vals, r.Speedup[s])
		}
		fr.Geomean[s] = report.Geomean(vals)
	}
	return fr
}

// modelFigure is the speedup sweep of every model on tree, rendered with
// a closing geomean row (Figures 5 and 6).
func modelFigure(name string, tree *hardware.Tree, cfg Config) (*FigureResult, error) {
	results, err := SpeedupSweep(context.TODO(), tree, cfg.Models, cfg.Batch, nil)
	if err != nil {
		return nil, err
	}
	fr := render(name, "model", results)
	fr.Table.AddFloatRow("geomean", 2, fr.Geomean[core.StrategyDP], fr.Geomean[core.StrategyOWT], fr.Geomean[core.StrategyHyPar], fr.Geomean[core.StrategyAccPar])
	return fr, nil
}

// Figure5 reproduces the heterogeneous-array speedups (Section 6.2): nine
// DNNs on 128 TPU-v2 + 128 TPU-v3, normalized to data parallelism. Its
// Results also feed Table8 and RunAblations.
func Figure5(cfg Config) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	tree, err := HeterogeneousTree(cfg.PerKind)
	if err != nil {
		return nil, err
	}
	return modelFigure("Figure 5: speedup on heterogeneous array (vs DP)", tree, cfg)
}

// Figure6 reproduces the homogeneous-array speedups (Section 6.3): nine
// DNNs on 256 TPU-v3.
func Figure6(cfg Config) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	arr, err := hardware.NewHomogeneous(hardware.TPUv3(), cfg.HomSize)
	if err != nil {
		return nil, err
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		return nil, err
	}
	return modelFigure("Figure 6: speedup on homogeneous array (vs DP)", tree, cfg)
}

// Figure7 reproduces the AlexNet partition-type map: the types AccPar
// selects for the weighted layers cv1..cv5, fc1..fc3 across 7 hierarchy
// levels at batch 128 (the figure's caption parameters), on a 128-way
// homogeneous array.
func Figure7() (*core.Plan, string, error) {
	net, err := models.BuildNetwork("alexnet", 128)
	if err != nil {
		return nil, "", err
	}
	arr, err := hardware.NewHomogeneous(hardware.TPUv3(), 128)
	if err != nil {
		return nil, "", err
	}
	tree, err := hardware.BuildTree(arr, 7)
	if err != nil {
		return nil, "", err
	}
	plan, err := core.PartitionCtx(context.TODO(), net, tree, core.AccPar())
	if err != nil {
		return nil, "", err
	}
	return plan, "Figure 7: AccPar partition types for Alexnet (7 hierarchies, batch 128)\n" + plan.TypeMap(), nil
}

// Figure8 reproduces the hierarchy-level scalability study: Vgg19 on the
// heterogeneous array, hierarchy level h = 2..9, each scheme normalized to
// DP at the same h. Hierarchy level h corresponds to h−1 explicit split
// levels; unsplit leaf groups fall back to internal data parallelism.
func Figure8(cfg Config) (*FigureResult, error) {
	cfg = cfg.withDefaults()
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: cfg.PerKind},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: cfg.PerKind})
	if err != nil {
		return nil, err
	}
	net, err := models.BuildNetwork("vgg19", cfg.Batch)
	if err != nil {
		return nil, err
	}
	// The h values are independent sweeps: run them across the worker
	// pool, each into its own slot, so the rows come out in h order.
	const hLo, hHi = 2, 9
	results := make([]ModelResult, hHi-hLo+1)
	err = parallel.ForEach(len(results), 0, func(k int) error {
		h := hLo + k
		tree, err := hardware.BuildTree(arr, h-1)
		if err != nil {
			return err
		}
		if results[k], err = measure(context.TODO(), fmt.Sprintf("h=%d", h), net, tree, nil, nil); err != nil {
			return fmt.Errorf("eval: figure8 h=%d: %w", h, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	fr := render("Figure 8: speedup vs hierarchy level on Vgg19 (heterogeneous array)", "h", results)
	for _, s := range fr.Series {
		s.XLabel = "hierarchy level"
	}
	return fr, nil
}

// FlexibilityRow quantifies Table 8: whether a scheme's configuration is
// static or dynamic, how many distinct partition configurations it selects
// across the plan trees of all models, and its geomean speedup — making the
// paper's DP ≺ OWT ≺ HyPar ≺ AccPar ordering measurable.
type FlexibilityRow struct {
	Scheme          core.Strategy
	Dynamic         bool
	DistinctConfigs int
	Geomean         float64
}

// Table8 computes the flexibility comparison from a speedup sweep's
// results (the paper's are Figure 5's): it counts each scheme's
// configurations on the plans that sweep made, and searches nothing.
func Table8(results []ModelResult) ([]FlexibilityRow, *report.Table) {
	var rows []FlexibilityRow
	tbl := report.NewTable("Table 8: flexibility of DP, OWT, HyPar and AccPar", "scheme", "configuration", "distinct configs", "geomean speedup")
	for _, s := range core.Strategies {
		var vals []float64
		configs := map[string]bool{}
		for _, r := range results {
			vals = append(vals, r.Speedup[s])
			plan := r.Plan(s)
			units := plan.Network.Units()
			for _, lvl := range plan.Levels() {
				for i, ty := range lvl.Types {
					if units[i].Virtual {
						continue
					}
					configs[fmt.Sprintf("%s/%s=%v", r.Model, units[i].Name, ty)] = true
				}
			}
		}
		row := FlexibilityRow{
			Scheme:          s,
			Dynamic:         s.Options().Fixed == nil,
			DistinctConfigs: len(configs),
			Geomean:         report.Geomean(vals),
		}
		rows = append(rows, row)
		mode := "static"
		if row.Dynamic {
			mode = "dynamic"
		}
		tbl.AddRow(s.String(), mode, fmt.Sprintf("%d", row.DistinctConfigs), fmt.Sprintf("%.2f", row.Geomean))
	}
	return rows, tbl
}
