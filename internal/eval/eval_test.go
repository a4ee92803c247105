package eval

import (
	"slices"
	"strings"
	"testing"

	"accpar/internal/core"
	"accpar/internal/cost"
	"accpar/internal/models"
)

// smallCfg keeps unit tests fast: 8+8 accelerators, batch 64, four models
// spanning the two families.
func smallCfg() Config {
	return Config{Batch: 64, PerKind: 8, HomSize: 16,
		Models: []string{"lenet", "alexnet", "vgg11", "resnet18"}}
}

func TestSchemeStringsAndOptions(t *testing.T) {
	want := map[core.Strategy]string{core.StrategyDP: "DP", core.StrategyOWT: "OWT", core.StrategyHyPar: "HyPar", core.StrategyAccPar: "AccPar"}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d: name %q", int(s), s.String())
		}
		_ = s.Options() // must not panic
	}
}

func TestFigure5SmallShape(t *testing.T) {
	fr, err := Figure5(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Results) != 4 {
		t.Fatalf("results = %d", len(fr.Results))
	}
	for _, r := range fr.Results {
		// DP speedup is 1 by construction.
		if r.Speedup[core.StrategyDP] != 1.0 {
			t.Errorf("%s: DP speedup = %g", r.Model, r.Speedup[core.StrategyDP])
		}
		// AccPar dominates every baseline on the heterogeneous array.
		for _, s := range []core.Strategy{core.StrategyDP, core.StrategyOWT, core.StrategyHyPar} {
			if r.Speedup[core.StrategyAccPar] < r.Speedup[s]*(1-1e-9) {
				t.Errorf("%s: AccPar %.3f below %v %.3f", r.Model, r.Speedup[core.StrategyAccPar], s, r.Speedup[s])
			}
		}
	}
	// Geomean ordering: AccPar > HyPar and AccPar > OWT > nothing specific
	// about OWT vs HyPar at small scale; the headline claim is AccPar on
	// top and DP at 1.
	if fr.Geomean[core.StrategyAccPar] <= fr.Geomean[core.StrategyHyPar] {
		t.Errorf("geomean AccPar %.3f not above HyPar %.3f", fr.Geomean[core.StrategyAccPar], fr.Geomean[core.StrategyHyPar])
	}
	if fr.Geomean[core.StrategyDP] != 1.0 {
		t.Errorf("geomean DP = %g", fr.Geomean[core.StrategyDP])
	}
	if !strings.Contains(fr.Table.String(), "geomean") {
		t.Error("table missing geomean row")
	}
}

func TestFigure5VggBeatsResnetSpeedups(t *testing.T) {
	cfg := smallCfg()
	cfg.Models = []string{"vgg11", "resnet18"}
	fr, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vgg, res := fr.Results[0], fr.Results[1]
	if vgg.Speedup[core.StrategyAccPar] <= res.Speedup[core.StrategyAccPar] {
		t.Errorf("Vgg AccPar speedup %.2f must exceed Resnet's %.2f (Section 6.2)",
			vgg.Speedup[core.StrategyAccPar], res.Speedup[core.StrategyAccPar])
	}
}

func TestFigure6HomogeneousGapNarrows(t *testing.T) {
	cfg := smallCfg()
	het, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hom, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// On the homogeneous array the AccPar/HyPar gap narrows relative to the
	// heterogeneous array (ratio flexibility stops mattering).
	gapHet := het.Geomean[core.StrategyAccPar] / het.Geomean[core.StrategyHyPar]
	gapHom := hom.Geomean[core.StrategyAccPar] / hom.Geomean[core.StrategyHyPar]
	if gapHom >= gapHet {
		t.Errorf("homogeneous AccPar/HyPar gap %.3f not below heterogeneous %.3f", gapHom, gapHet)
	}
	// AccPar still on top (complete space still helps) — per model, not
	// just in aggregate: the portfolio guarantees containment.
	for _, r := range hom.Results {
		for _, s := range []core.Strategy{core.StrategyDP, core.StrategyOWT, core.StrategyHyPar} {
			if r.Speedup[core.StrategyAccPar] < r.Speedup[s]*(1-1e-9) {
				t.Errorf("homogeneous %s: AccPar %.3f below %v %.3f", r.Model, r.Speedup[core.StrategyAccPar], s, r.Speedup[s])
			}
		}
	}
}

func TestFigure7Map(t *testing.T) {
	plan, rendered, err := Figure7()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Levels()) != 7 {
		t.Errorf("levels = %d, want 7", len(plan.Levels()))
	}
	for _, name := range []string{"cv1", "cv5", "fc1", "fc3"} {
		if !strings.Contains(rendered, name) {
			t.Errorf("rendered map missing %s:\n%s", name, rendered)
		}
	}
	// Section 6.3: fc layers use Type-II/III at level 1; conv layers are
	// mostly but not solely Type-I.
	types, err := plan.TypesAtLevel(1)
	if err != nil {
		t.Fatal(err)
	}
	units := plan.Network.Units()
	for i, u := range units {
		if strings.HasPrefix(u.Name, "fc") && types[i] == 0 {
			t.Errorf("%s at level 1 is Type-I; the paper selects II/III for fc layers", u.Name)
		}
	}
}

func TestFigure8Scalability(t *testing.T) {
	cfg := smallCfg()
	fr, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := fr.Series[core.StrategyAccPar].Y
	if len(acc) != 8 {
		t.Fatalf("h sweep has %d points, want 8", len(acc))
	}
	// AccPar's speedup at the deepest hierarchy exceeds its h=2 speedup
	// (the "continues to increase" claim).
	if acc[len(acc)-1] <= acc[0] {
		t.Errorf("AccPar speedup must grow with hierarchy depth: h=2 %.2f vs h=9 %.2f", acc[0], acc[len(acc)-1])
	}
	// DP is the normalization baseline: always 1.
	for i, v := range fr.Series[core.StrategyDP].Y {
		if v != 1.0 {
			t.Errorf("DP point %d = %g", i, v)
		}
	}
	// AccPar dominates at every h.
	for i := range acc {
		if acc[i] < fr.Series[core.StrategyHyPar].Y[i]*(1-1e-9) {
			t.Errorf("h index %d: AccPar %.2f below HyPar %.2f", i, acc[i], fr.Series[core.StrategyHyPar].Y[i])
		}
	}
}

// table8AllocBudget bounds Table 8's count on the paper's nine models:
// it reads Figure 5's plans (about 10,000 allocations for the sweep) and
// keys its configurations on a comparable struct, so the count adds at
// most 3.5% to them (276 measured). Formatting one string key per
// (model, layer, level, scheme) made it about 18,000.
const table8AllocBudget = 350

// TestTable8AllocBudget: counting the paper's Table 8 on Figure 5's
// sweep stays within table8AllocBudget allocations.
func TestTable8AllocBudget(t *testing.T) {
	fig5, err := Figure5(Config{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() { Table8(fig5.Results) })
	t.Logf("Table 8 on Figure 5's sweep: %.0f allocs", allocs)
	if allocs > table8AllocBudget {
		t.Errorf("Table 8 on Figure 5's sweep: %.0f allocs, budget %d", allocs, table8AllocBudget)
	}
}

func TestTable8FlexibilityOrdering(t *testing.T) {
	fig5, err := Figure5(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	rows, tbl := Table8(fig5.Results)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// DP ≺ OWT ≺ HyPar ≺ AccPar in distinct configurations.
	for i := 1; i < len(rows); i++ {
		if rows[i].DistinctConfigs < rows[i-1].DistinctConfigs {
			t.Errorf("flexibility must not decrease: %v %d < %v %d",
				rows[i].Scheme, rows[i].DistinctConfigs, rows[i-1].Scheme, rows[i-1].DistinctConfigs)
		}
	}
	if rows[0].Dynamic || rows[1].Dynamic {
		t.Error("DP and OWT are static")
	}
	if !rows[2].Dynamic || !rows[3].Dynamic {
		t.Error("HyPar and AccPar are dynamic")
	}
	if !strings.Contains(tbl.String(), "AccPar") {
		t.Error("table missing AccPar row")
	}
}

func TestRunAblations(t *testing.T) {
	cfg := smallCfg()
	cfg.Models = []string{"alexnet", "resnet18"}
	fig5, err := Figure5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	results, tbl := RunAblations(fig5.Results)
	if len(results) != len(cfg.Models)*len(Ablations) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		// Removing a design element can only slow AccPar down (the full
		// configuration's search space contains every ablated space).
		if r.Slowdown < 1-1e-9 {
			t.Errorf("%s/%v: slowdown %.4f < 1 — ablation outperformed the full search", r.Model, r.Ablation, r.Slowdown)
		}
	}
	// At least one ablation must actually hurt on the heterogeneous array
	// (otherwise the design elements are vacuous).
	hurt := false
	for _, r := range results {
		if r.Slowdown > 1.05 {
			hurt = true
		}
	}
	if !hurt {
		t.Error("no ablation produced a >5% slowdown; design elements appear vacuous")
	}
	if tbl == nil || len(tbl.Rows) != len(cfg.Models) {
		t.Error("ablation table malformed")
	}
}

func TestAblationNames(t *testing.T) {
	seen := map[int]bool{}
	for _, a := range Ablations {
		if a.String() == "" || strings.HasPrefix(a.String(), "Ablation(") {
			t.Errorf("ablation %d lacks a name", int(a))
		}
		// Each ablation is its own one-element removal from AccPar: a
		// portfolio variant after the full one and before the baselines,
		// without the ablated element.
		v := a.Variant()
		if v <= core.VariantAccPar || v >= core.VariantHyPar || seen[v] {
			t.Errorf("ablation %v maps to variant %d", a, v)
			continue
		}
		seen[v] = true
		opt := core.StrategyAccPar.Variants()[v]
		removed := map[Ablation]bool{
			AblationCommOnly:   opt.Objective == core.ObjectiveCommOnly,
			AblationTwoTypes:   len(opt.Types) == 2 && !slices.Contains(opt.Types, cost.TypeIII),
			AblationEqualRatio: opt.Ratio == core.RatioEqual,
			AblationLinearized: opt.Linearize,
		}[a]
		if !removed {
			t.Errorf("ablation %v maps to variant %d, which keeps the element", a, v)
		}
	}
}

func TestHeadlineFullScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep in -short mode")
	}
	// The paper-scale configuration must run end to end; shape assertions
	// only (absolute numbers are recorded in EXPERIMENTS.md).
	fr, err := Figure5(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Results) != len(models.EvaluationOrder()) {
		t.Fatalf("results = %d", len(fr.Results))
	}
	g := fr.Geomean
	if !(g[core.StrategyAccPar] > g[core.StrategyHyPar] && g[core.StrategyHyPar] > g[core.StrategyOWT] && g[core.StrategyOWT] > 1) {
		t.Errorf("geomean ordering violated: OWT %.2f, HyPar %.2f, AccPar %.2f",
			g[core.StrategyOWT], g[core.StrategyHyPar], g[core.StrategyAccPar])
	}
}
