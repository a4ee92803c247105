package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/tensor"
	"accpar/internal/workload"
)

// bruteForce exhaustively enumerates all 3^N unit-type assignments and
// returns the minimum DP objective, evaluated with exactly the same unit
// and edge cost functions the dynamic programming uses. This certifies the
// Eq. 9 recursion (including the Section 5.2 multi-path decomposition)
// against ground truth on small networks.
func bruteForce(ctx *levelCtx) float64 {
	n := len(ctx.units)
	edges := ctx.edges
	assignment := make([]cost.Type, n)
	best := math.Inf(1)
	var recur func(u int)
	recur = func(u int) {
		if u == n {
			total := 0.0
			for i := range ctx.units {
				allowed := false
				for _, t := range ctx.allowedTypes(i) {
					if t == assignment[i] {
						allowed = true
					}
				}
				if !allowed {
					return
				}
				total += ctx.unitCost(i, assignment[i])
			}
			for _, e := range edges {
				total += ctx.edgeCost(e[0], e[1], assignment[e[0]], assignment[e[1]])
			}
			if total < best {
				best = total
			}
			return
		}
		for _, t := range cost.Types {
			assignment[u] = t
			recur(u + 1)
		}
	}
	recur(0)
	return best
}

// chainNet builds a linear network of FC layers with varied dims.
func chainNet(dims []tensor.LayerDims) *dnn.Network {
	net := &dnn.Network{Name: "chain", Batch: dims[0].B}
	for i, d := range dims {
		l := dnn.WeightedLayer{Name: string(rune('a' + i)), Kind: dnn.KindFC, Dims: d}
		net.Segments = append(net.Segments, dnn.Segment{Unit: &l})
	}
	return net
}

// residualNet builds unit a, parallel {identity, [b, c]}, virtual join,
// unit d.
func residualNet() *dnn.Network {
	mk := func(name string, b, di, do int) dnn.WeightedLayer {
		return dnn.WeightedLayer{Name: name, Kind: dnn.KindFC, Dims: tensor.FC(b, di, do)}
	}
	a := mk("a", 16, 8, 8)
	bb := mk("b", 16, 8, 8)
	c := mk("c", 16, 8, 8)
	join := dnn.WeightedLayer{Name: "join", Kind: dnn.KindAdd, Virtual: true,
		Dims: tensor.Conv(16, 8, 8, 1, 1, 1, 1, 1, 1)}
	d := mk("d", 16, 8, 16)
	return &dnn.Network{Name: "res", Batch: 16, Segments: []dnn.Segment{
		{Unit: &a},
		{Paths: []dnn.Chain{{}, {bb, c}}},
		{Unit: &join},
		{Unit: &d},
	}}
}

// ctxFor builds a level context over the network with asymmetric sides,
// the way the search builds one: newLevelCtx, reset, then the ratio.
func ctxFor(net *dnn.Network, opt Options, alpha float64) *levelCtx {
	ctx := rootCtx(net, opt.withDefaults(), Side{Compute: 180e12, Net: 1e9}, Side{Compute: 420e12, Net: 2e9})
	ctx.alpha = alpha
	return ctx
}

// objectiveOf prices an assignment with the raw unit and edge cost
// functions over the structure the search sees.
func objectiveOf(ctx *levelCtx, types []cost.Type) float64 {
	total := 0.0
	for i := range ctx.units {
		total += ctx.unitCost(i, types[i])
	}
	for _, e := range ctx.edges {
		total += ctx.edgeCost(e[0], e[1], types[e[0]], types[e[1]])
	}
	return total
}

// TestDPOptimalChain: the DP matches brute force on linear chains under
// both objectives and several ratios.
func TestDPOptimalChain(t *testing.T) {
	dims := []tensor.LayerDims{
		tensor.FC(32, 100, 50),
		tensor.FC(32, 50, 200),
		tensor.FC(32, 200, 10),
		tensor.FC(32, 10, 300),
		tensor.FC(32, 300, 20),
	}
	net := chainNet(dims)
	for _, obj := range []Objective{ObjectiveTime, ObjectiveCommOnly} {
		for _, alpha := range []float64{0.3, 0.5, 0.7} {
			ctx := ctxFor(net, Options{Objective: obj}, alpha)
			_, got, err := ctx.runDP()
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(ctx)
			if math.Abs(got-want) > 1e-12*(1+want) {
				t.Errorf("obj=%v α=%g: DP %.12g != brute force %.12g", obj, alpha, got, want)
			}
		}
	}
}

// TestDPOptimalMultiPath: the multi-path decomposition matches brute force
// on a residual topology with an identity shortcut.
func TestDPOptimalMultiPath(t *testing.T) {
	net := residualNet()
	for _, obj := range []Objective{ObjectiveTime, ObjectiveCommOnly} {
		for _, alpha := range []float64{0.25, 0.5, 0.8} {
			ctx := ctxFor(net, Options{Objective: obj}, alpha)
			_, got, err := ctx.runDP()
			if err != nil {
				t.Fatal(err)
			}
			want := bruteForce(ctx)
			if math.Abs(got-want) > 1e-12*(1+want) {
				t.Errorf("obj=%v α=%g: DP %.12g != brute force %.12g", obj, alpha, got, want)
			}
		}
	}
}

// TestDPOptimalRestrictedTypes: restriction to {I, II} also matches brute
// force (brute force skips disallowed assignments).
func TestDPOptimalRestrictedTypes(t *testing.T) {
	net := chainNet([]tensor.LayerDims{
		tensor.FC(16, 64, 32), tensor.FC(16, 32, 64), tensor.FC(16, 64, 8),
	})
	ctx := ctxFor(net, Options{Types: []cost.Type{cost.TypeI, cost.TypeII}, Objective: ObjectiveTime}, 0.5)
	_, got, err := ctx.runDP()
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForce(ctx)
	if math.Abs(got-want) > 1e-12*(1+want) {
		t.Errorf("restricted DP %.12g != brute force %.12g", got, want)
	}
}

// TestDPOptimalWithFixed: a fixed assignment constrains both searches
// identically.
func TestDPOptimalWithFixed(t *testing.T) {
	net := chainNet([]tensor.LayerDims{
		tensor.FC(16, 64, 32), tensor.FC(16, 32, 64), tensor.FC(16, 64, 8),
	})
	opt := Options{Objective: ObjectiveTime}
	opt.Fixed = func(l dnn.WeightedLayer) (cost.Type, bool) {
		if l.Name == "b" {
			return cost.TypeIII, true
		}
		return 0, false
	}
	ctx := ctxFor(net, opt, 0.5)
	types, got, err := ctx.runDP()
	if err != nil {
		t.Fatal(err)
	}
	if types[1] != cost.TypeIII {
		t.Errorf("fixed layer b = %v", types[1])
	}
	want := bruteForce(ctx)
	if math.Abs(got-want) > 1e-12*(1+want) {
		t.Errorf("fixed DP %.12g != brute force %.12g", got, want)
	}
}

// TestDPBacktrackCostConsistency: re-evaluating the returned assignment
// with the raw cost functions reproduces the DP's claimed objective.
func TestDPBacktrackCostConsistency(t *testing.T) {
	net := residualNet()
	ctx := ctxFor(net, Options{Objective: ObjectiveTime}, 0.6)
	types, objective, err := ctx.runDP()
	if err != nil {
		t.Fatal(err)
	}
	total := objectiveOf(ctx, types)
	if math.Abs(total-objective) > 1e-12*(1+objective) {
		t.Errorf("backtracked assignment costs %.12g, DP claimed %.12g", total, objective)
	}
}

// TestInceptionPartitioning: four-path concat modules flow through the
// full hierarchical search.
func TestInceptionPartitioning(t *testing.T) {
	net := buildNet(t, "inception", 64)
	plan, err := PartitionCtx(context.Background(), net, paperTree(t, 4), StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []Options{DataParallel(), OWT(), HyPar()} {
		base, err := PartitionCtx(context.Background(), net, paperTree(t, 4), s)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Time() > base.Time()*(1+1e-9) {
			t.Errorf("AccPar %.6g slower than a baseline %.6g on inception", plan.Time(), base.Time())
		}
	}
}

// certifySplits checks Eq. 9's optimality at every split of a searched
// plan. Each split's level context is rebuilt the way the search built
// it: from the plan's search shape under the plan's options, at the
// extents scaleInto derives from the root, between the node's sides and at
// its ratio. There runDP's objective, and the objective its assignment
// actually pays, must both equal the brute-force minimum. It returns the
// number of splits checked.
func certifySplits(t *testing.T, name string, plan *Plan) int {
	t.Helper()
	shape := newSearchShape(plan.Network, plan.opt)
	checked := 0
	var walk func(n *PlanNode, dims []extents, pos string)
	walk = func(n *PlanNode, dims []extents, pos string) {
		if n.IsLeaf() {
			return
		}
		ctx := shape.splitCtx(dims, n)
		types, got, err := ctx.runDP()
		if err != nil {
			t.Fatalf("%s split %s: %v", name, pos, err)
		}
		paid := objectiveOf(ctx, types)
		want := bruteForce(ctx)
		shape.levels.Put(ctx)
		tol := 1e-12 * (1 + math.Abs(want))
		if math.Abs(got-want) > tol || math.Abs(paid-want) > tol {
			t.Errorf("%s split %s (%s, α=%g): DP objective %.12g, its assignment pays %.12g, brute force %.12g",
				name, pos, n.GroupDesc, n.Alpha, got, paid, want)
		}
		checked++
		walk(n.Left, shape.scaled(dims, n.Types, n.Alpha), pos+"L")
		walk(n.Right, shape.scaled(dims, n.Types, 1-n.Alpha), pos+"R")
	}
	walk(plan.Root, shape.rootDims, "root")
	return checked
}

// TestExhaustiveMatchesDPFullHierarchy: at every split of real plans —
// LeNet and AlexNet on 4+4 boards and small synthetic workloads on 2+2,
// under single AccPar, the portfolio and HyPar — the per-level DP reaches
// the exhaustive enumeration's optimum. HyPar's linearized search runs
// its DP on the flattened structure, so its plans certify planSegs.
func TestExhaustiveMatchesDPFullHierarchy(t *testing.T) {
	type input struct {
		name string
		net  *dnn.Network
		tree *hardware.Tree
	}
	var inputs []input
	for _, model := range []string{"lenet", "alexnet"} {
		inputs = append(inputs, input{model, buildNet(t, model, 32), paperTree(t, 4)})
	}
	for seed := int64(100); seed < 110; seed++ {
		net, err := workload.GenerateNetwork(seed, workload.Config{MinLayers: 3, MaxLayers: 7})
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("seed%d", seed), net, paperTree(t, 2)})
	}
	for _, in := range inputs {
		for _, run := range []struct {
			name string
			opts []Options
		}{
			{"accpar", []Options{AccPar()}},
			{"portfolio", StrategyAccPar.Variants()},
			{"hypar", []Options{HyPar()}},
		} {
			plan, err := PartitionCtx(context.Background(), in.net, in.tree, run.opts...)
			if err != nil {
				t.Fatalf("%s %s: %v", in.name, run.name, err)
			}
			if certifySplits(t, in.name+" "+run.name, plan) == 0 {
				t.Errorf("%s %s: plan has no split to certify", in.name, run.name)
			}
		}
	}
}
