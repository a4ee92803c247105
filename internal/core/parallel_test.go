package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/hardware"
	"accpar/internal/obs"
	"accpar/internal/tensor"
)

// planJSON renders a plan through the canonical JSON encoding, the
// byte-level identity the parallel planner is held to.
func planJSON(t *testing.T, p *Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelismEquivalence: the planner must produce byte-identical
// plans regardless of the Parallelism setting — the serial reference
// path (1), a fixed worker count (4), and the GOMAXPROCS default (0) —
// on both a ResNet-style multi-path network and a deep model over a
// multi-level hardware tree.
func TestParallelismEquivalence(t *testing.T) {
	cases := []struct {
		name  string
		batch int
	}{
		{name: "resnet50", batch: 64},
		{name: "vgg16", batch: 64},
	}
	tree := paperTree(t, 4) // 4+4 accelerators, three split levels
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := buildNet(t, tc.name, tc.batch)
			var want []byte
			for _, par := range []int{1, 4, 0} {
				opt := AccPar()
				opt.Parallelism = par
				plan, err := PartitionCtx(context.Background(), net, tree, opt)
				if err != nil {
					t.Fatalf("Parallelism=%d: %v", par, err)
				}
				got := planJSON(t, plan)
				if par == 1 {
					want = got
					continue
				}
				if !bytes.Equal(got, want) {
					t.Errorf("Parallelism=%d plan differs from serial reference (%d vs %d bytes)", par, len(got), len(want))
				}
			}
		})
	}
}

// TestParallelismEquivalenceResidual covers the hand-built residual
// (multi-path) network from the brute-force suite.
func TestParallelismEquivalenceResidual(t *testing.T) {
	net := residualNet()
	tree := paperTree(t, 2)
	var want []byte
	for _, par := range []int{1, 4, 0} {
		opt := AccPar()
		opt.Parallelism = par
		plan, err := PartitionCtx(context.Background(), net, tree, opt)
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		got := planJSON(t, plan)
		if par == 1 {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("Parallelism=%d plan differs from serial reference", par)
		}
	}
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
// Partition and Replan calls. Run under -race, it exercises the sharded
// memo, the bounded fork/join recursion, and Replan's concurrent
// stale-and-fresh passes over one shared memo.
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
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			opt := AccPar()
			opt.Parallelism = w%3 + 1 // mix serial and forked recursion
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
// a rounding step off 0.5, are solved once at any Parallelism, so an
// uncached parallel search expands exactly the subproblems the serial
// search does. Forking the right half would let two workers miss on the
// same subproblem and both solve it. Run with -count=20 -cpu 4 to give a
// scheduling-dependent count its chances.
func TestEqualSiblingsSolvedOnce(t *testing.T) {
	net := buildNet(t, "vgg16", 64)
	tree := paperTree(t, 64)
	expanded := func(par int) int64 {
		opt := AccPar()
		opt.Parallelism = par
		before := obs.Default().Snapshot().Counters["core.subproblems_expanded"]
		if _, err := PartitionCtx(context.Background(), net, tree, opt); err != nil {
			t.Fatal(err)
		}
		return obs.Default().Snapshot().Counters["core.subproblems_expanded"] - before
	}
	want := expanded(1)
	for i := 0; i < 10; i++ {
		if got := expanded(4); got != want {
			t.Fatalf("search %d at Parallelism 4 expanded %d subproblems, serial %d", i, got, want)
		}
	}
}
