package eval

import (
	"fmt"

	"accpar/internal/core"
	"accpar/internal/report"
)

// Ablation disables one AccPar design element, isolating its contribution
// — the design choices Section 5 argues for.
type Ablation int

const (
	// AblationCommOnly replaces the joint time objective with HyPar's
	// communication-only proxy (keeps the complete type space and flexible
	// ratios).
	AblationCommOnly Ablation = iota
	// AblationTwoTypes removes Type-III, restricting the search to the
	// OWT/HyPar space (keeps the joint objective and flexible ratios).
	AblationTwoTypes
	// AblationEqualRatio forces α = 0.5, removing heterogeneity balancing.
	AblationEqualRatio
	// AblationLinearized flattens multi-path regions before searching.
	AblationLinearized
)

// Ablations lists all ablations in presentation order.
var Ablations = []Ablation{AblationCommOnly, AblationTwoTypes, AblationEqualRatio, AblationLinearized}

// String names the ablation.
func (a Ablation) String() string {
	switch a {
	case AblationCommOnly:
		return "comm-only objective"
	case AblationTwoTypes:
		return "no Type-III"
	case AblationEqualRatio:
		return "equal ratio"
	case AblationLinearized:
		return "linearized multi-path"
	default:
		return fmt.Sprintf("Ablation(%d)", int(a))
	}
}

// ablationVariants maps each ablation to its portfolio variant: AccPar
// with the ablated element removed.
var ablationVariants = [...]int{
	AblationCommOnly:   core.VariantCommOnly,
	AblationTwoTypes:   core.VariantNoTypeIII,
	AblationEqualRatio: core.VariantEqualRatio,
	AblationLinearized: core.VariantLinearized,
}

// Variant returns the index, among core.StrategyAccPar.Variants, of AccPar
// with the ablated element removed.
func (a Ablation) Variant() int { return ablationVariants[a] }

// AblationResult reports, per model, the slowdown factor incurred by
// removing one design element (ablated time / full AccPar time, ≥ 1 up to
// search noise).
type AblationResult struct {
	Ablation Ablation
	Model    string
	FullTime float64
	Time     float64
	Slowdown float64
}

// RunAblations evaluates every ablation on a speedup sweep's results (the
// paper's are Figure 5's, on the heterogeneous array). Each ablation is a
// variant of the AccPar portfolio, so each model's run already holds the
// full plan (its winner) and every ablated plan; RunAblations searches
// nothing.
func RunAblations(results []ModelResult) ([]AblationResult, *report.Table) {
	var out []AblationResult
	tbl := report.NewTable("AccPar ablations (slowdown vs full AccPar)", "model", "comm-only", "no Type-III", "equal ratio", "linearized")
	for _, res := range results {
		full := res.Variants[res.Winner]
		row := []float64{}
		for _, a := range Ablations {
			plan := res.Variants[a.Variant()]
			r := AblationResult{
				Ablation: a,
				Model:    res.Model,
				FullTime: full.Time(),
				Time:     plan.Time(),
				Slowdown: plan.Time() / full.Time(),
			}
			out = append(out, r)
			row = append(row, r.Slowdown)
		}
		tbl.AddFloatRow(res.Model, 3, row...)
	}
	return out, tbl
}
