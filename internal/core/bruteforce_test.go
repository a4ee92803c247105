package core

import (
	"context"
	"math"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/tensor"
)

// bruteForce exhaustively enumerates all 3^N unit-type assignments and
// returns the minimum DP objective, evaluated with exactly the same unit
// and edge cost functions the dynamic programming uses. This certifies the
// Eq. 9 recursion (including the Section 5.2 multi-path decomposition)
// against ground truth on small networks.
func bruteForce(ctx *levelCtx) float64 {
	n := len(ctx.units)
	edges := edgeList(ctx.planSegs)
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

// ctxFor builds a level context over the network with asymmetric sides.
func ctxFor(net *dnn.Network, opt Options, alpha float64) *levelCtx {
	opt = opt.withDefaults()
	units := net.Units()
	ctx := &levelCtx{
		units:    make([]unitInfo, len(units)),
		sideI:    Side{Compute: 180e12, Net: 1e9},
		sideJ:    Side{Compute: 420e12, Net: 2e9},
		alpha:    alpha,
		opt:      opt,
		segs:     indexSegments(net),
		planSegs: indexSegments(net),
	}
	for i := range units {
		ctx.units[i] = unitInfo{layer: units[i], dims: units[i].Dims}
	}
	ctx.prepare()
	return ctx
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
	total := 0.0
	for i := range ctx.units {
		total += ctx.unitCost(i, types[i])
	}
	for _, e := range edgeList(ctx.planSegs) {
		total += ctx.edgeCost(e[0], e[1], types[e[0]], types[e[1]])
	}
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
