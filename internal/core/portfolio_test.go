package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

func TestAccParVariantsContainBaselines(t *testing.T) {
	variants := StrategyAccPar.Variants()
	if len(variants) < 7 {
		t.Fatalf("portfolio has %d variants, want >= 7", len(variants))
	}
	// The first variant is the full configuration.
	full := variants[0]
	if full.Objective != ObjectiveTime || full.Ratio != RatioFlexible || full.Linearize {
		t.Error("first variant must be the full AccPar configuration")
	}
	// Every ablation configuration must be present so that removing a
	// design element can never appear to help.
	hasHyPar, hasEqual, hasLinear := false, false, false
	for _, v := range variants {
		v = v.withDefaults()
		if v.Objective == ObjectiveCommOnly && v.Linearize && len(v.Types) == 2 {
			hasHyPar = true
		}
		if v.Objective == ObjectiveTime && v.Ratio == RatioEqual && v.Fixed == nil && len(v.Types) == 3 && !v.Linearize {
			hasEqual = true
		}
		if v.Objective == ObjectiveTime && v.Linearize && len(v.Types) == 3 {
			hasLinear = true
		}
	}
	if !hasHyPar || !hasEqual || !hasLinear {
		t.Errorf("portfolio missing ablation configs: hypar=%v equal=%v linear=%v", hasHyPar, hasEqual, hasLinear)
	}
}

// TestPartitionBestDominates: the portfolio winner is at least as good as
// every individual variant and every baseline, on heterogeneous and
// homogeneous arrays alike.
func TestPartitionBestDominates(t *testing.T) {
	trees := map[string]*hardware.Tree{
		"het": paperTree(t, 8),
	}
	arrHom, err := hardware.NewHomogeneous(hardware.TPUv3(), 16)
	if err != nil {
		t.Fatal(err)
	}
	hom, err := hardware.BuildTree(arrHom, 64)
	if err != nil {
		t.Fatal(err)
	}
	trees["hom"] = hom

	for label, tree := range trees {
		for _, model := range []string{"alexnet", "resnet18"} {
			net := buildNet(t, model, 64)
			best, err := PartitionCtx(context.Background(), net, tree, StrategyAccPar.Variants()...)
			if err != nil {
				t.Fatalf("%s/%s: %v", label, model, err)
			}
			for i, opt := range StrategyAccPar.Variants() {
				plan, err := PartitionCtx(context.Background(), net, tree, opt)
				if err != nil {
					t.Fatalf("%s/%s variant %d: %v", label, model, i, err)
				}
				if best.Time() > plan.Time()*(1+1e-12) {
					t.Errorf("%s/%s: portfolio %.6g worse than variant %d at %.6g",
						label, model, best.Time(), i, plan.Time())
				}
			}
		}
	}
}

// TestStrategyVariantsAreTheirConfigurations: a comparison reads each
// baseline's plan from the baseline's portfolio variant, and an ablation
// study each ablated plan from the variant that removes that element, so
// each such variant must search exactly what the standalone configuration
// searches — the same search fingerprint — on every registry model. The
// nine variants' fingerprints are pairwise distinct, so a mapping to the
// wrong variant cannot pass.
func TestStrategyVariantsAreTheirConfigurations(t *testing.T) {
	minus := func(remove func(*Options)) Options {
		opt := AccPar()
		remove(&opt)
		return opt
	}
	own := map[int]Options{
		VariantAccPar:     AccPar(),
		VariantNoTypeIII:  minus(func(o *Options) { o.Types = []cost.Type{cost.TypeI, cost.TypeII} }),
		VariantNoTypeII:   minus(func(o *Options) { o.Types = []cost.Type{cost.TypeI, cost.TypeIII} }),
		VariantCommOnly:   minus(func(o *Options) { o.Objective = ObjectiveCommOnly }),
		VariantEqualRatio: minus(func(o *Options) { o.Ratio = RatioEqual }),
		VariantLinearized: minus(func(o *Options) { o.Linearize = true }),
	}
	for _, s := range []Strategy{StrategyDP, StrategyOWT, StrategyHyPar} {
		own[s.Variant(-1)] = s.Options()
	}
	if got := StrategyAccPar.Variant(VariantCommOnly); got != VariantCommOnly {
		t.Errorf("AccPar maps to variant %d, want the winner %d", got, VariantCommOnly)
	}
	variants := StrategyAccPar.Variants()
	if len(own) != len(variants) {
		t.Fatalf("%d variants, %d with a configuration of their own", len(variants), len(own))
	}
	for _, model := range models.Names() {
		net := buildNet(t, model, 64)
		fp := func(o Options) [16]byte { return searchFingerprint(net, o.withDefaults()) }
		seen := map[[16]byte]int{}
		for i, v := range variants {
			got := fp(v)
			if want := fp(own[i]); got != want {
				t.Errorf("%s: variant %d searches another configuration than its own", model, i)
			}
			if j, dup := seen[got]; dup {
				t.Errorf("%s: variants %d and %d share a fingerprint", model, j, i)
			}
			seen[got] = i
		}
	}
}

// TestPartitionAllMatchesLoneSearches: every plan PartitionAllCtx returns
// is byte-identical to a lone PartitionCtx of its option set, with and
// without a shared cache, and its winner is PartitionCtx's plan. Under
// MemoryReject at a binding capacity, a set's plan is nil exactly where
// its lone search finds no fitting plan.
func TestPartitionAllMatchesLoneSearches(t *testing.T) {
	cases := []struct {
		name string
		net  *dnn.Network
		tree *hardware.Tree
		mem  MemoryMode
	}{
		{"resnet18 on 8+8", buildNet(t, "resnet18", 64), paperTree(t, 8), MemoryOff},
		{"alexnet on a 1/256 HBM pair, reject", buildNet(t, "alexnet", 128), shrunkTree(t, 256), MemoryReject},
	}
	for _, c := range cases {
		lone := StrategyAccPar.Variants()
		for i := range lone {
			lone[i].MemoryLimit = c.mem
		}
		want := make([][]byte, len(lone))
		for i, opt := range lone {
			plan, err := PartitionCtx(context.Background(), c.net, c.tree, opt)
			switch {
			case errors.Is(err, ErrNoFeasiblePlan):
			case err != nil:
				t.Fatalf("%s, variant %d: %v", c.name, i, err)
			default:
				want[i] = planJSON(t, plan)
			}
		}
		best, err := PartitionCtx(context.Background(), c.net, c.tree, lone...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, cache := range []*SharedCache{nil, NewSharedCache(0)} {
			opts := append([]Options(nil), lone...)
			for i := range opts {
				opts[i].Cache = cache
			}
			plans, winner, err := PartitionAllCtx(context.Background(), c.net, c.tree, opts...)
			if err != nil {
				t.Fatalf("%s, cached %v: %v", c.name, cache != nil, err)
			}
			nils := 0
			for i, plan := range plans {
				switch {
				case want[i] == nil && plan != nil:
					t.Errorf("%s, cached %v: variant %d has a plan, its lone search none", c.name, cache != nil, i)
				case want[i] == nil:
					nils++
				case plan == nil:
					t.Errorf("%s, cached %v: variant %d has no plan, its lone search one", c.name, cache != nil, i)
				case !bytes.Equal(planJSON(t, plan), want[i]):
					t.Errorf("%s, cached %v: variant %d plan differs from its lone search", c.name, cache != nil, i)
				}
			}
			if c.mem == MemoryReject && nils == 0 {
				t.Errorf("%s: every variant fits; the capacity no longer binds", c.name)
			}
			if !bytes.Equal(planJSON(t, plans[winner]), planJSON(t, best)) {
				t.Errorf("%s, cached %v: winner %d is not PartitionCtx's plan", c.name, cache != nil, winner)
			}
		}
	}
}

func TestPartitionBestRequiresOptions(t *testing.T) {
	net := buildNet(t, "lenet", 8)
	if _, err := PartitionCtx(context.Background(), net, paperTree(t, 2)); err == nil {
		t.Error("empty option list must be rejected")
	}
}

// TestPartitionAllCtxPreCanceled: a context canceled before dispatch
// aborts the portfolio with the typed sentinel and no plans, and a
// deadline in the past reports ErrDeadlineExceeded.
func TestPartitionAllCtxPreCanceled(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	tree := paperTree(t, 4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PartitionCtx(ctx, net, tree, StrategyAccPar.Variants()...); !errors.Is(err, ErrCanceled) {
		t.Errorf("pre-canceled portfolio: got %v, want ErrCanceled", err)
	}
	if plans, winner, err := PartitionAllCtx(ctx, net, tree, StrategyAccPar.Variants()...); !errors.Is(err, ErrCanceled) || plans != nil || winner != -1 {
		t.Errorf("pre-canceled PartitionAllCtx: got %d plans, winner %d, %v; want none, -1, ErrCanceled", len(plans), winner, err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := PartitionCtx(expired, net, tree, StrategyAccPar.Variants()...); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("expired portfolio: got %v, want ErrDeadlineExceeded", err)
	}
}

// lateTimerCtx is a context whose deadline has passed but whose Done
// channel has not closed: the state a context.WithDeadline is in until
// the runtime gets round to running its timer.
type lateTimerCtx struct {
	context.Context
	deadline time.Time
	done     chan struct{}
}

func (c lateTimerCtx) Deadline() (time.Time, bool) { return c.deadline, true }
func (c lateTimerCtx) Done() <-chan struct{}       { return c.done }
func (c lateTimerCtx) Err() error                  { return nil }

// TestSearchReadsDeadlineClock: a search stops at a passed deadline even
// before the context's Done channel closes, so a search that keeps every
// P busy cannot outrun the timer that would close it.
func TestSearchReadsDeadlineClock(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	tree := paperTree(t, 4)
	ctx := lateTimerCtx{Context: context.Background(), deadline: time.Now().Add(-time.Second), done: make(chan struct{})}
	opt := AccPar()
	opt.Parallelism = 1
	if _, err := PartitionCtx(ctx, net, tree, opt); !errors.Is(err, ErrDeadlineExceeded) {
		t.Errorf("passed deadline, open Done channel: got %v, want ErrDeadlineExceeded", err)
	}
}

// TestPartitionAllCtxMidSearchCancel aborts the portfolio while its
// variant searches run: the typed sentinel surfaces (or the search wins
// the race and completes), no goroutines leak, and a subsequent
// uncanceled run's winner is byte-identical to a cold standalone search.
func TestPartitionAllCtxMidSearchCancel(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	tree := paperTree(t, 8)
	baseline := runtime.NumGoroutine()

	for _, delay := range []time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		if _, _, err := PartitionAllCtx(ctx, net, tree, StrategyAccPar.Variants()...); err != nil && !errors.Is(err, ErrCanceled) {
			t.Fatalf("mid-search cancel (delay %v): got %v, want nil or ErrCanceled", delay, err)
		}
		cancel()
	}

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked across canceled portfolio searches: %d > baseline %d", n, baseline)
	}

	plans, winner, err := PartitionAllCtx(context.Background(), net, tree, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	got := plans[winner]
	want, err := PartitionCtx(context.Background(), net, tree, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := got.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("post-cancel portfolio search is not reproducible")
	}
}
