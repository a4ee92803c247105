package eval

import (
	"strings"
	"testing"

	"accpar/internal/core"
)

// TestMemoryCeilingSweep runs the ceiling study at small scale and
// asserts its shape: every scheme feasible at full capacity, every
// scheme infeasible at the floor, monotone feasibility in between
// (shrinking the ceiling never makes a scheme feasible again), and
// AccPar's knee at or below every baseline's.
func TestMemoryCeilingSweep(t *testing.T) {
	fractions := []float64{1, 1.0 / 64, 1.0 / 1024, 1.0 / (1 << 24)}
	results, tbl, err := MemoryCeilingSweep(smallCfg(), "alexnet", fractions)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(fractions)*len(ceilingSchemes) {
		t.Fatalf("results = %d, want %d", len(results), len(fractions)*len(ceilingSchemes))
	}
	bySchemeFrac := map[core.Strategy]map[float64]MemoryCeilingResult{}
	for _, r := range results {
		if bySchemeFrac[r.Scheme] == nil {
			bySchemeFrac[r.Scheme] = map[float64]MemoryCeilingResult{}
		}
		bySchemeFrac[r.Scheme][r.Fraction] = r
		if r.Feasible && r.Time <= 0 {
			t.Errorf("%v at 1/%g: feasible with non-positive time %g", r.Scheme, 1/r.Fraction, r.Time)
		}
	}
	for s, byFrac := range bySchemeFrac {
		if !byFrac[1].Feasible {
			t.Errorf("%v infeasible at full Table 7 capacity", s)
		}
		if byFrac[1.0/(1<<24)].Feasible {
			t.Errorf("%v feasible at a 1/2^24 ceiling", s)
		}
		feasible := true
		for _, f := range fractions {
			if byFrac[f].Feasible && !feasible {
				t.Errorf("%v regains feasibility as the ceiling shrinks", s)
			}
			feasible = byFrac[f].Feasible
		}
	}
	// AccPar's sharded type space must stay feasible wherever any
	// replicating baseline still fits.
	for _, f := range fractions {
		for _, s := range []core.Strategy{core.StrategyDP, core.StrategyOWT} {
			if bySchemeFrac[s][f].Feasible && !bySchemeFrac[core.StrategyAccPar][f].Feasible {
				t.Errorf("at 1/%g: %v feasible but AccPar is not", 1/f, s)
			}
		}
	}
	rendered := tbl.String()
	for _, want := range []string{"ceiling", "infeasible", "AccPar"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("table missing %q:\n%s", want, rendered)
		}
	}
}
