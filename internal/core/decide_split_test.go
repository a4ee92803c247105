package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/workload"
)

// refDecideSplit is the type/ratio alternation decideSplit replaced: up
// to maxRatioIters full rounds of a DP and a bisection, stopping only
// after a round whose types repeat the previous round's and whose ratio
// moved by less than 1e-6. capped reports that the round cap ended it.
func (p *planner) refDecideSplit(node *hardware.Tree, dims []extents, sideI, sideJ Side, memLambda float64) (types []cost.Type, alpha float64, ev LevelEval, capped bool, err error) {
	ctx := p.level(dims, sideI, sideJ)
	defer p.levels.Put(ctx)
	if memLambda > 0 {
		ctx.memLambda = memLambda
		ctx.capI = float64(node.Left.Identity().HBMBytes)
		ctx.capJ = float64(node.Right.Identity().HBMBytes)
	}
	switch p.opt.Ratio {
	case RatioEqual:
		ctx.alpha = 0.5
	case RatioFlexible:
		ctx.alpha = cost.ClampRatio(ctx.sideI.Compute / (ctx.sideI.Compute + ctx.sideJ.Compute))
	}
	capped = true
	for iter := 0; iter < maxRatioIters; iter++ {
		newTypes, _, dpErr := ctx.runDP()
		if dpErr != nil {
			return nil, 0, LevelEval{}, false, dpErr
		}
		stable := types != nil && equalTypes(types, newTypes)
		types = newTypes
		if p.opt.Ratio == RatioEqual {
			capped = false
			break
		}
		newAlpha, ratioErr := ctx.solveRatio(types)
		if ratioErr != nil {
			return nil, 0, LevelEval{}, false, ratioErr
		}
		if stable && math.Abs(newAlpha-ctx.alpha) < 1e-6 {
			ctx.alpha = newAlpha
			capped = false
			break
		}
		ctx.alpha = newAlpha
	}
	return types, ctx.alpha, ctx.evalLevel(types), capped, nil
}

// splitCoverage counts what the equivalence checks exercised.
type splitCoverage struct {
	cases, errs, capped, penalized, equalRatio int
}

// checkDecideSplit fails the test unless decideSplit and refDecideSplit
// return the same types, bit-identical ratio and evaluation, and the same
// error at one split.
func checkDecideSplit(t *testing.T, cov *splitCoverage, name string, p *planner, node *hardware.Tree, dims []extents, sideI, sideJ Side, memLambda float64) {
	t.Helper()
	wantTypes, wantAlpha, wantEv, capped, wantErr := p.refDecideSplit(node, dims, sideI, sideJ, memLambda)
	gotTypes, gotAlpha, gotEv, gotErr := p.decideSplit(node, dims, sideI, sideJ, memLambda)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s (sides %+v %+v, λ %g): decideSplit err %v, reference err %v", name, sideI, sideJ, memLambda, gotErr, wantErr)
	}
	cov.cases++
	if memLambda > 0 {
		cov.penalized++
	}
	if p.opt.Ratio == RatioEqual {
		cov.equalRatio++
	}
	if wantErr != nil {
		cov.errs++
		return
	}
	if capped {
		cov.capped++
	}
	if !equalTypes(gotTypes, wantTypes) || math.Float64bits(gotAlpha) != math.Float64bits(wantAlpha) || !sameEvalBits(gotEv, wantEv) {
		t.Fatalf("%s (sides %+v %+v, λ %g): decideSplit = %v α=%v %+v, reference = %v α=%v %+v",
			name, sideI, sideJ, memLambda, gotTypes, gotAlpha, gotEv, wantTypes, wantAlpha, wantEv)
	}
}

func sameEvalBits(a, b LevelEval) bool {
	return math.Float64bits(a.TimeI) == math.Float64bits(b.TimeI) &&
		math.Float64bits(a.TimeJ) == math.Float64bits(b.TimeJ) &&
		math.Float64bits(a.CommTime) == math.Float64bits(b.CommTime) &&
		math.Float64bits(a.CommBytes) == math.Float64bits(b.CommBytes)
}

// eachSplit calls visit on every distinct split of plan, with the split's
// hardware node and dims, walking the plan from its root as the search
// did.
func eachSplit(p *planner, plan *Plan, tree *hardware.Tree, visit func(n *PlanNode, node *hardware.Tree, dims []extents)) {
	seen := map[*PlanNode]bool{}
	var walk func(n *PlanNode, node *hardware.Tree, dims []extents)
	walk = func(n *PlanNode, node *hardware.Tree, dims []extents) {
		if n.IsLeaf() || seen[n] {
			return
		}
		seen[n] = true
		visit(n, node, dims)
		walk(n.Left, node.Left, p.scaled(dims, n.Types, n.Alpha))
		walk(n.Right, node.Right, p.scaled(dims, n.Types, 1-n.Alpha))
	}
	walk(plan.Root, tree, p.rootDims)
}

// TestDecideSplitMatchesAlternation checks the fixed-point alternation
// against the four-round loop it replaced, at every split of the golden
// grid (penalized splits also under two memory-ladder λ) and on random
// networks crossed with random and degenerate sides: types, the ratio's
// bits, the evaluation's bits and errors must all match.
func TestDecideSplitMatchesAlternation(t *testing.T) {
	var cov splitCoverage
	t.Run("golden-grid", func(t *testing.T) {
		if testing.Short() {
			t.Skip("plans 1800 cold searches")
		}
		forEachGoldenPlan(t, func(name string, opt Options, tree *hardware.Tree, plan *Plan) {
			p, err := newPlanner(context.Background(), plan.Network, opt)
			if err != nil {
				t.Fatal(err)
			}
			eachSplit(p, plan, tree, func(n *PlanNode, node *hardware.Tree, dims []extents) {
				checkDecideSplit(t, &cov, name, p, node, dims, n.SideI, n.SideJ, 0)
				if opt.MemoryLimit == MemoryOff {
					return
				}
				// The memory ladder's λ: a multiple of the split's level cost.
				scale := math.Max(n.Eval.TimeI, n.Eval.TimeJ)
				if opt.Objective == ObjectiveCommOnly {
					scale = n.Eval.CommBytes
				}
				if !(scale > 0) {
					scale = 1
				}
				for _, mult := range []float64{1, 64} {
					checkDecideSplit(t, &cov, name, p, node, dims, n.SideI, n.SideJ, mult*scale)
				}
			})
		})
	})
	t.Run("random", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(38))
		node := fleetTree(t, 1, 1, 1)
		for seed := int64(1); seed <= 240; seed++ {
			net, err := workload.GenerateNetwork(seed, workload.Config{ResidualProb: 0.5, MaxLayers: 16})
			if err != nil {
				t.Fatal(err)
			}
			p, err := newPlanner(context.Background(), net, randomSplitOptions(rnd))
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 6; rep++ {
				dims := p.rootDims
				if rep%2 == 1 {
					dims = randomChildDims(rnd, p.searchShape, dims)
				}
				sideI, sideJ := randomSides(rnd)
				lambda := 0.0
				if rnd.Intn(3) == 0 {
					lambda = math.Pow(10, -6+9*rnd.Float64())
				}
				checkDecideSplit(t, &cov, net.Name, p, node, dims, sideI, sideJ, lambda)
			}
		}
	})
	t.Logf("%d splits: %d errors, %d capped at %d rounds, %d penalized, %d equal-ratio",
		cov.cases, cov.errs, cov.capped, maxRatioIters, cov.penalized, cov.equalRatio)
	if cov.errs == 0 || cov.capped == 0 || cov.penalized == 0 || cov.equalRatio == 0 {
		t.Fatalf("coverage: %+v", cov)
	}
}

// randomSplitOptions draws an option set as the DP differential test
// does, with equal ratios a quarter of the time.
func randomSplitOptions(rnd *rand.Rand) Options {
	opt := Options{
		Types:       typeSets[rnd.Intn(len(typeSets))],
		Objective:   Objective(rnd.Intn(2)),
		Mode:        Mode(rnd.Intn(2)),
		Linearize:   rnd.Intn(4) == 0,
		Parallelism: 1,
	}
	if rnd.Intn(4) == 0 {
		opt.Ratio = RatioEqual
	}
	if rnd.Intn(2) == 0 {
		opt.Fixed = randomFixed(rnd.Int63(), rnd.Float64())
	}
	return opt
}

// randomChildDims scales dims as a random split would hand them to one
// child, so small extents round down to zero at times.
func randomChildDims(rnd *rand.Rand, s *searchShape, dims []extents) []extents {
	types := make([]cost.Type, len(dims))
	for i := range types {
		types[i] = cost.Types[rnd.Intn(len(cost.Types))]
	}
	return s.scaled(dims, types, cost.ClampRatio(rnd.Float64()))
}

// randomSides draws the two sides of a split: plausible random groups
// most of the time, otherwise a degenerate pair — identical sides, sides
// orders of magnitude apart, or a zero, infinite or NaN resource, which
// the search rejects before deciding a split but which exercise the DP's
// and the bisection's error paths here.
func randomSides(rnd *rand.Rand) (Side, Side) {
	plausible := func() Side {
		return Side{Compute: 1e12 * (1 + 400*rnd.Float64()), Net: 1e9 * (1 + 100*rnd.Float64())}
	}
	si, sj := plausible(), plausible()
	switch rnd.Intn(8) {
	case 0:
		sj = si
	case 1:
		sj.Compute *= 1e12
	case 2:
		si.Net *= 1e-12
	case 3:
		bad := []float64{0, math.Inf(1), math.NaN(), 1e-300}[rnd.Intn(4)]
		if rnd.Intn(2) == 0 {
			si.Compute = bad
		} else {
			sj.Net = bad
		}
	}
	return si, sj
}

// planColdFleets are the plannerbench plan-cold fleets: 32–128 boards of
// each kind.
func planColdFleets() [][2]int {
	counts := []int{32, 48, 64, 96, 128}
	var out [][2]int
	for _, a := range counts {
		for _, b := range counts {
			out = append(out, [2]int{a, b})
		}
	}
	return out
}

// TestSplitAlternationWork pins the work of the type/ratio alternation:
// a split between identical halves starts at α = 0.5, the bisection
// confirms it at its first midpoint, and so it runs one DP and one
// bisection; and over the plannerbench plan-cold request set (ten models
// × 25 fleets, cold serial searches) a split averages at most
// maxDPRunsPerSplit DP runs. A loop that always confirms its first round
// with a second DP averages about 2.06.
func TestSplitAlternationWork(t *testing.T) {
	const maxDPRunsPerSplit = 1.2
	modelNames := append(models.EvaluationOrder(), "inception")
	ctx := context.Background()
	t.Run("identical-halves", func(t *testing.T) {
		node := paperTree(t, 64).Left // 64 TPU-v2 boards: two equal halves
		for _, model := range modelNames {
			p, err := newPlanner(ctx, buildNet(t, model, 512), AccPar())
			if err != nil {
				t.Fatal(err)
			}
			p.rs = &replanStats{}
			opt := p.opt
			sideI := Side{Compute: node.Left.Group.ComputeDensity(), Net: opt.Topology.BisectionBandwidth(node.Left.Group)}
			sideJ := Side{Compute: node.Right.Group.ComputeDensity(), Net: opt.Topology.BisectionBandwidth(node.Right.Group)}
			iters := obsBisectIters.Value()
			_, alpha, _, err := p.decideSplit(node, p.rootDims, sideI, sideJ, 0)
			if err != nil {
				t.Fatal(err)
			}
			iters = obsBisectIters.Value() - iters
			if dp := p.rs.dpRuns; dp != 1 || iters != 1 || alpha != 0.5 {
				t.Errorf("%s: identical halves took %d DP runs and %d bisection iterations to α = %v; want 1, 1 and 0.5", model, dp, iters, alpha)
			}
		}
	})
	t.Run("plan-cold", func(t *testing.T) {
		opt := StrategyAccPar.Options()
		opt.Parallelism = 1
		var dpRuns, splits int64
		for _, model := range modelNames {
			net := buildNet(t, model, 512)
			for _, f := range planColdFleets() {
				tree := fleetTree(t, f[0], f[1], 1)
				rs := &replanStats{}
				plan, err := partitionOne(ctx, net, tree, opt, rs)
				if err != nil {
					t.Fatal(err)
				}
				p, err := newPlanner(ctx, net, opt)
				if err != nil {
					t.Fatal(err)
				}
				eachSplit(p, plan, tree, func(*PlanNode, *hardware.Tree, []extents) { splits++ })
				dpRuns += rs.dpRuns
			}
		}
		perSplit := float64(dpRuns) / float64(splits)
		t.Logf("%d DP runs over %d splits: %.3f per split", dpRuns, splits, perSplit)
		if perSplit > maxDPRunsPerSplit {
			t.Errorf("plan-cold request set: %.3f DP runs per split, want at most %.1f", perSplit, maxDPRunsPerSplit)
		}
	})
}
