package core

import (
	"errors"
	"math"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/hardware"
)

// TestBisectRatio runs the Eq. 10 bisection over hand-made balance
// functions: a root is found whichever way g runs, an exact root at the
// first midpoint is returned after one step, a g that keeps one sign gives
// the slower side the extreme share, and a NaN anywhere is a typed error.
func TestBisectRatio(t *testing.T) {
	lo, hi := cost.MinRatio, 1-cost.MinRatio
	nanAt := func(at float64) func(float64) float64 {
		return func(a float64) float64 {
			if a == at {
				return math.NaN()
			}
			return a - 0.3
		}
	}
	for _, c := range []struct {
		name  string
		g     func(float64) float64
		want  float64
		exact bool // want bit for bit, not within 1e-12
		evals int  // g evaluations, when checked
		nan   bool
	}{
		{name: "increasing", g: func(a float64) float64 { return a - 0.3 }, want: 0.3},
		{name: "decreasing", g: func(a float64) float64 { return 0.7 - a }, want: 0.7},
		{name: "increasing root at first midpoint", g: func(a float64) float64 { return a - (1 - a) }, want: 0.5, exact: true, evals: 3},
		{name: "decreasing root at first midpoint", g: func(a float64) float64 { return (1 - a) - a }, want: 0.5, exact: true, evals: 3},
		{name: "identity zero", g: func(float64) float64 { return 0 }, want: 0.5, exact: true, evals: 3},
		{name: "increasing root at lo", g: func(a float64) float64 { return a - lo }, want: lo},
		{name: "decreasing root at lo", g: func(a float64) float64 { return lo - a }, want: lo},
		{name: "increasing root at hi", g: func(a float64) float64 { return a - hi }, want: hi},
		{name: "decreasing root at hi", g: func(a float64) float64 { return hi - a }, want: hi},
		{name: "positive increasing", g: func(a float64) float64 { return a + 1 }, want: lo, exact: true, evals: 2},
		{name: "positive decreasing", g: func(a float64) float64 { return 2 - a }, want: lo, exact: true, evals: 2},
		{name: "negative increasing", g: func(a float64) float64 { return a - 2 }, want: hi, exact: true, evals: 2},
		{name: "negative decreasing", g: func(a float64) float64 { return -1 - a }, want: hi, exact: true, evals: 2},
		{name: "NaN at lo", g: nanAt(lo), nan: true},
		{name: "NaN at hi", g: nanAt(hi), nan: true},
		{name: "NaN at a midpoint", g: nanAt(0.5), nan: true},
	} {
		evals := 0
		got, err := bisectRatio(func(a float64) float64 {
			evals++
			return c.g(a)
		})
		if c.nan {
			var dh *DegenerateHardwareError
			if !errors.As(err, &dh) {
				t.Errorf("%s: got (%v, %v), want a *DegenerateHardwareError", c.name, got, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if c.exact && got != c.want || !c.exact && math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: α = %.17g, want %.17g", c.name, got, c.want)
		}
		if c.evals > 0 && evals != c.evals {
			t.Errorf("%s: g evaluated %d times, want %d", c.name, evals, c.evals)
		}
	}
}

// TestEqualHalvesSplitAtHalf: across the golden grid, every flexible-ratio
// split whose two halves are identical hardware has α == 0.5 exactly, and a
// serial search links one solved node as both children. An α a few ulps
// off 0.5 gives the halves different child keys, and a missed falling
// balance gives one half 1/4096 of the work; both fail here.
func TestEqualHalvesSplitAtHalf(t *testing.T) {
	if testing.Short() {
		t.Skip("plans 1800 cold searches")
	}
	var check func(name string, n *PlanNode, hw *hardware.Tree)
	check = func(name string, n *PlanNode, hw *hardware.Tree) {
		if n.IsLeaf() {
			return
		}
		if hw.Left.Identity().Digest == hw.Right.Identity().Digest {
			if n.Alpha != 0.5 {
				t.Errorf("%s: %s splits identical halves at α = %.17g", name, n.GroupDesc, n.Alpha)
			} else if n.Left != n.Right {
				t.Errorf("%s: %s solves its identical halves twice", name, n.GroupDesc)
			}
		}
		check(name, n.Left, hw.Left)
		check(name, n.Right, hw.Right)
	}
	forEachGoldenPlan(t, func(name string, opt Options, tree *hardware.Tree, plan *Plan) {
		if opt.Ratio == RatioFlexible {
			check(name, plan.Root, tree)
		}
	})
}
