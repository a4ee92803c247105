package accpar

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"
)

// cancelWorkload is a search big enough to straddle several cancellation
// probes but small enough to finish quickly when left alone.
func cancelWorkload(t *testing.T) (*Network, *Array) {
	t.Helper()
	net, err := BuildModel("vgg16", 512)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := HeterogeneousArray(
		ArrayGroup{Spec: TPUv2(), Count: 64},
		ArrayGroup{Spec: TPUv3(), Count: 64})
	if err != nil {
		t.Fatal(err)
	}
	return net, arr
}

// TestPartitionCtxPreCanceled asserts an already-canceled context aborts
// before any work, with the typed sentinel that also matches the raw
// context error.
func TestPartitionCtxPreCanceled(t *testing.T) {
	net, arr := cancelWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PartitionCtx(ctx, net, arr, StrategyAccPar)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to match context.Canceled too", err)
	}
}

// TestPartitionCtxDeadline asserts an expired deadline surfaces as
// ErrDeadlineExceeded (matching context.DeadlineExceeded).
func TestPartitionCtxDeadline(t *testing.T) {
	net, arr := cancelWorkload(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	_, err := PartitionCtx(ctx, net, arr, StrategyAccPar)
	if !errors.Is(err, ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want to match context.DeadlineExceeded too", err)
	}
}

// TestSessionCancelMidSearchLeavesCacheConsistent is the acceptance
// test for abort consistency: cancel a search partway through, assert
// the session cache holds no partial results, and assert a subsequent
// uncanceled run through the same session is byte-identical to a run
// against a fresh session.
func TestSessionCancelMidSearchLeavesCacheConsistent(t *testing.T) {
	net, arr := cancelWorkload(t)

	sess := NewSession(0)
	canceledOnce := false
	// Walk the deadline outward until a run completes: at least one
	// earlier iteration aborted mid-search (the first always does), and
	// every aborted iteration exercised the cache-consistency path.
	var warm *Plan
	for timeout := 50 * time.Microsecond; ; timeout *= 4 {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		p, err := sess.PartitionCtx(ctx, net, arr, StrategyAccPar)
		cancel()
		if err == nil {
			warm = p
			break
		}
		if !errors.Is(err, ErrDeadlineExceeded) && !errors.Is(err, ErrCanceled) {
			t.Fatalf("aborted run: err = %v, want a cancellation sentinel", err)
		}
		canceledOnce = true
		if timeout > time.Minute {
			t.Fatal("search never completed within a minute")
		}
	}
	if !canceledOnce {
		t.Skip("search finished before the first deadline; nothing aborted")
	}

	fresh, err := NewSession(0).Partition(net, arr, StrategyAccPar)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := warm.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if err := fresh.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("plan after aborted runs differs from fresh-session plan:\ngot:  %.200s\nwant: %.200s", got.String(), want.String())
	}

	// Re-plan on the same session: the search must now resolve from the
	// cache alone (hits, no misses), so if any aborted run had published
	// a partial subproblem this plan would be built from it and diverge.
	before := sess.CacheStats()
	p2, err := sess.Partition(net, arr, StrategyAccPar)
	if err != nil {
		t.Fatal(err)
	}
	after := sess.CacheStats()
	if after.Hits == before.Hits || after.Misses != before.Misses {
		t.Errorf("re-plan: %d new hits, %d new misses; want hits and no misses",
			after.Hits-before.Hits, after.Misses-before.Misses)
	}
	var got2 bytes.Buffer
	if err := p2.WriteJSON(&got2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.Bytes(), want.Bytes()) {
		t.Error("cache-resolved plan differs from fresh-session plan")
	}
}

// TestCompareCtxCanceled asserts the comparison's portfolio run maps a
// canceled context to the typed sentinel.
func TestCompareCtxCanceled(t *testing.T) {
	net, arr := cancelWorkload(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewSession(0).CompareCtx(ctx, net, arr)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestResilienceCtxCanceled asserts the simulation pipeline observes a
// canceled context between phases.
func TestResilienceCtxCanceled(t *testing.T) {
	net, err := BuildModel("lenet", 32)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := ParseFaults("slowdown:0=2.0")
	if err != nil {
		t.Fatal(err)
	}
	groups := []ArrayGroup{
		{Spec: TPUv2(), Count: 4},
		{Spec: TPUv3(), Count: 4},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = NewSession(0).ResilienceCtx(ctx, net, groups, StrategyAccPar,
		FaultScenario{Seed: 1, Faults: fl}, SimConfig{})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestReplanCtxCanceled asserts the analytic replanning pipeline aborts
// on a canceled context.
func TestReplanCtxCanceled(t *testing.T) {
	net, err := BuildModel("lenet", 32)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := ParseFaults("slowdown:0=2.0")
	if err != nil {
		t.Fatal(err)
	}
	groups := []ArrayGroup{
		{Spec: TPUv2(), Count: 4},
		{Spec: TPUv3(), Count: 4},
	}
	sc := FaultScenario{Seed: 1, Faults: fl}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = NewSession(0).ReplanCtx(ctx, net, groups, StrategyAccPar, &sc)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
