package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/obs"
	"accpar/internal/tensor"
)

// planJSON renders a plan through the canonical JSON encoding, the
// byte-level identity plans are held to across Parallelism settings.
func planJSON(t *testing.T, p *Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// portfolioAt returns the AccPar portfolio (StrategyAccPar.Variants)
// with Parallelism par on every option set.
func portfolioAt(par int) []Options {
	opts := StrategyAccPar.Variants()
	for i := range opts {
		opts[i].Parallelism = par
	}
	return opts
}

// replanJSON renders every plan of a replan report through the canonical
// JSON encoding.
func replanJSON(t *testing.T, rep *ReplanReport) []byte {
	t.Helper()
	var out []byte
	for _, p := range []*Plan{rep.FaultFree, rep.Stale, rep.Fresh, rep.Replanned} {
		out = append(out, planJSON(t, p)...)
	}
	return out
}

// parallelEquivalence checks that the calls which run several searches —
// a portfolio's option sets and a replan's stale and fresh passes — give
// byte-identical results at Parallelism 1, 4 and 0: the field no longer
// changes how a call runs, and these tests keep it that way.
func parallelEquivalence(t *testing.T, net *dnn.Network, groups []hardware.GroupSpec) {
	t.Helper()
	pristine := treeFor(t, groups...)
	degraded := slowdownTree(t, groups, 1, 2)
	var wantPlan, wantReplan []byte
	for _, par := range []int{1, 4, 0} {
		plan, err := PartitionCtx(context.Background(), net, pristine, portfolioAt(par)...)
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		opt := AccPar()
		opt.Parallelism = par
		rep, err := ReplanCtx(context.Background(), net, pristine, degraded, opt)
		if err != nil {
			t.Fatalf("Parallelism=%d replan: %v", par, err)
		}
		gotPlan, gotReplan := planJSON(t, plan), replanJSON(t, rep)
		if par == 1 {
			wantPlan, wantReplan = gotPlan, gotReplan
			continue
		}
		if !bytes.Equal(gotPlan, wantPlan) {
			t.Errorf("Parallelism=%d portfolio plan differs from serial reference (%d vs %d bytes)", par, len(gotPlan), len(wantPlan))
		}
		if !bytes.Equal(gotReplan, wantReplan) {
			t.Errorf("Parallelism=%d replan differs from serial reference (%d vs %d bytes)", par, len(gotReplan), len(wantReplan))
		}
	}
}

// TestParallelismEquivalence: the portfolio and the replan must produce
// byte-identical plans regardless of the Parallelism setting, on both a
// ResNet-style multi-path network and a deep model over a multi-level
// hardware tree.
func TestParallelismEquivalence(t *testing.T) {
	for _, name := range []string{"resnet50", "vgg16"} {
		t.Run(name, func(t *testing.T) {
			parallelEquivalence(t, buildNet(t, name, 64), v2v3Groups(4)) // 4+4 accelerators, three split levels
		})
	}
}

// TestParallelismEquivalenceResidual covers the hand-built residual
// (multi-path) network from the brute-force suite.
func TestParallelismEquivalenceResidual(t *testing.T) {
	parallelEquivalence(t, residualNet(), v2v3Groups(2))
}

// TestParallelismValidate: negative worker counts are rejected.
func TestParallelismValidate(t *testing.T) {
	opt := AccPar()
	opt.Parallelism = -1
	net := residualNet()
	if _, err := PartitionCtx(context.Background(), net, paperTree(t, 2), opt); err == nil {
		t.Error("negative Parallelism must be rejected")
	}
}

// TestPatternTablesMatchCostModel: the precomputed Table 5 closed forms
// (coeffs.go) must agree exactly — not approximately — with the direct
// cost-model evaluation, over all nine (prev, next) transitions in both
// training and inference mode.
func TestPatternTablesMatchCostModel(t *testing.T) {
	boundaries := []int64{1, 7, 1024, 802816}
	alphas := []float64{cost.MinRatio, 0.25, 0.5, 0.7, 1 - cost.MinRatio}
	for _, prev := range cost.Types {
		for _, next := range cost.Types {
			for _, b := range boundaries {
				for _, alpha := range alphas {
					beta := 1 - alpha
					wantTrain := cost.InterCommElements(prev, next, b, alpha, beta)
					gotTrain := patElems(patTrain[prev][next], float64(b), alpha, beta)
					if gotTrain != wantTrain {
						t.Fatalf("train %v→%v b=%d α=%g: pattern %g, cost model %g", prev, next, b, alpha, gotTrain, wantTrain)
					}
					wantInfer, _ := cost.InterCommSplit(prev, next, b, alpha, beta)
					gotInfer := patElems(patInfer[prev][next], float64(b), alpha, beta)
					if gotInfer != wantInfer {
						t.Fatalf("infer %v→%v b=%d α=%g: pattern %g, cost model %g", prev, next, b, alpha, gotInfer, wantInfer)
					}
				}
			}
		}
	}
}

// TestSolveRatioMatchesReference: the closed-form coefficient bisection
// must land on the same balance point as the full per-step evalLevel
// sweep it replaced, across objectives and type assignments.
func TestSolveRatioMatchesReference(t *testing.T) {
	dims := []tensor.LayerDims{
		tensor.FC(32, 100, 50),
		tensor.FC(32, 50, 200),
		tensor.FC(32, 200, 10),
		tensor.FC(32, 10, 300),
	}
	paperCtx, _ := benchCtx(t)
	for _, netCase := range []struct {
		name string
		ctx  *levelCtx
	}{
		{name: "chain", ctx: ctxFor(chainNet(dims), Options{}, 0.5)},
		{name: "residual", ctx: ctxFor(residualNet(), Options{}, 0.5)},
		{name: "paper-root", ctx: paperCtx},
	} {
		n := len(netCase.ctx.units)
		assignments := [][]cost.Type{
			uniformTypes(n, cost.TypeI),
			uniformTypes(n, cost.TypeII),
			uniformTypes(n, cost.TypeIII),
		}
		mixed := make([]cost.Type, n)
		for i := range mixed {
			mixed[i] = cost.Types[i%len(cost.Types)]
		}
		assignments = append(assignments, mixed)
		for ai, types := range assignments {
			got, errGot := netCase.ctx.solveRatio(types)
			want, errWant := netCase.ctx.solveRatioReference(types)
			if (errGot == nil) != (errWant == nil) {
				t.Fatalf("%s assignment %d: error mismatch %v vs %v", netCase.name, ai, errGot, errWant)
			}
			if errGot != nil {
				continue
			}
			if d := got - want; d > 1e-9 || d < -1e-9 {
				t.Errorf("%s assignment %d: solveRatio %.15g, reference %.15g", netCase.name, ai, got, want)
			}
		}
	}
}

// solveRatioReference is the pre-optimization bisection that re-evaluates
// the full level cost at every step: the ground truth the closed-form
// solveRatio is tested against, and the baseline BenchmarkSolveRatio's
// speedup is quoted against.
func (c *levelCtx) solveRatioReference(types []cost.Type) (float64, error) {
	saved := c.alpha
	defer func() { c.alpha = saved }()
	return bisectRatio(func(a float64) float64 {
		c.alpha = a
		ev := c.evalLevel(types)
		return ev.TimeI - ev.TimeJ
	})
}

func uniformTypes(n int, t cost.Type) []cost.Type {
	out := make([]cost.Type, n)
	for i := range out {
		out[i] = t
	}
	return out
}

// TestPlannerMemoRace hammers the memoized planner from concurrent
// Partition and Replan calls on one SharedCache. Run under -race, it
// checks the memo get/put, the cache trims and the shared search shapes'
// pools under concurrent searches, while each call still owns its level
// contexts and dims buffers.
func TestPlannerMemoRace(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	groups := v2v3Groups(4)
	pristine := treeFor(t, groups...)
	deg, err := hardware.DegradeGroups(groups, map[int]hardware.Degradation{
		1: {Compute: 2, MemBW: 1, NetBW: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	degraded := treeFor(t, deg...)

	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	cache := NewSharedCache(0)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := AccPar()
			opt.Cache = cache
			opt.Parallelism = w%3 + 1 // read by nothing; varied in case that changes
			if w%2 == 0 {
				if _, err := PartitionCtx(context.Background(), net, pristine, opt); err != nil {
					errs <- fmt.Errorf("worker %d Partition: %w", w, err)
				}
				return
			}
			if _, err := ReplanCtx(context.Background(), net, pristine, degraded, opt); err != nil {
				errs <- fmt.Errorf("worker %d Replan: %w", w, err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestEqualSiblingsSolvedOnce: the halves of a homogeneous split, which
// pose one subproblem at α = 0.5 and whose children meet again when α is
// a rounding step off 0.5, are solved once by every search, so the calls
// that run several searches — the portfolio's option sets and a replan's
// stale and fresh passes — expand the same subproblems at Parallelism 4
// as at 1. CI runs it with -count=20 -cpu 4, so a count that came to
// depend on scheduling again would show.
func TestEqualSiblingsSolvedOnce(t *testing.T) {
	net := buildNet(t, "vgg16", 64)
	groups := v2v3Groups(64)
	pristine := treeFor(t, groups...)
	degraded := slowdownTree(t, groups, 1, 2)
	expanded := func(par int) (portfolio, replan int64) {
		before := obs.Default().Snapshot().Counters["core.subproblems_expanded"]
		if _, err := PartitionCtx(context.Background(), net, pristine, portfolioAt(par)...); err != nil {
			t.Fatal(err)
		}
		portfolio = obs.Default().Snapshot().Counters["core.subproblems_expanded"] - before
		opt := AccPar()
		opt.Parallelism = par
		rep, err := ReplanCtx(context.Background(), net, pristine, degraded, opt)
		if err != nil {
			t.Fatal(err)
		}
		return portfolio, rep.Stats.Expanded
	}
	wantPortfolio, wantReplan := expanded(1)
	for i := 0; i < 10; i++ {
		gotPortfolio, gotReplan := expanded(4)
		if gotPortfolio != wantPortfolio {
			t.Fatalf("portfolio %d at Parallelism 4 expanded %d subproblems, serial %d", i, gotPortfolio, wantPortfolio)
		}
		if gotReplan != wantReplan {
			t.Fatalf("replan %d at Parallelism 4 expanded %d subproblems, serial %d", i, gotReplan, wantReplan)
		}
	}
}
