package core

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"accpar/internal/hardware"
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

func TestPartitionBestRequiresOptions(t *testing.T) {
	net := buildNet(t, "lenet", 8)
	if _, err := PartitionCtx(context.Background(), net, paperTree(t, 2)); err == nil {
		t.Error("empty option list must be rejected")
	}
}

// TestPartitionBestCtxPreCanceled: a context canceled before dispatch
// aborts the portfolio with the typed sentinel, and a deadline in the
// past reports ErrDeadlineExceeded.
func TestPartitionBestCtxPreCanceled(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	tree := paperTree(t, 4)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PartitionCtx(ctx, net, tree, StrategyAccPar.Variants()...); !errors.Is(err, ErrCanceled) {
		t.Errorf("pre-canceled portfolio: got %v, want ErrCanceled", err)
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

// TestPartitionBestCtxMidSearchCancel aborts the portfolio while its
// variant searches run: the typed sentinel surfaces (or the search wins
// the race and completes), no goroutines leak, and a subsequent
// uncanceled run is byte-identical to a cold standalone search.
func TestPartitionBestCtxMidSearchCancel(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	tree := paperTree(t, 8)
	baseline := runtime.NumGoroutine()

	for _, delay := range []time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			time.Sleep(delay)
			cancel()
		}()
		if _, err := PartitionCtx(ctx, net, tree, StrategyAccPar.Variants()...); err != nil && !errors.Is(err, ErrCanceled) {
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

	got, err := PartitionCtx(context.Background(), net, tree, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
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
