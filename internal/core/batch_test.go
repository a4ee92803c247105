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

func planBytes(t *testing.T, p *Plan) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func homTree(t *testing.T, spec hardware.Spec, n, levels int) *hardware.Tree {
	t.Helper()
	arr, err := hardware.NewHomogeneous(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, levels)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestBatchPlanEquivalence is the core batch-engine contract: every plan
// produced through the sweep-shared memo is byte-identical to a
// standalone AccPar portfolio search, for every candidate, no matter how
// much cross-candidate state the earlier candidates left behind.
func TestBatchPlanEquivalence(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	set, err := NewBatchSet(net, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	trees := []*hardware.Tree{
		paperTree(t, 4),
		homTree(t, hardware.TPUv3(), 8, 64),
		paperTree(t, 8),
		homTree(t, hardware.TPUv2(), 16, 64),
		paperTree(t, 4), // revisit: served almost entirely from memo
	}
	ctx := context.Background()
	for i, tree := range trees {
		got, variant, err := set.PlanBestCtx(ctx, tree)
		if err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		if variant < 0 || variant >= len(StrategyAccPar.Variants()) {
			t.Fatalf("tree %d: variant index %d out of range", i, variant)
		}
		want, err := PartitionCtx(context.Background(), net, tree, StrategyAccPar.Variants()...)
		if err != nil {
			t.Fatalf("tree %d standalone: %v", i, err)
		}
		if !bytes.Equal(planBytes(t, got), planBytes(t, want)) {
			t.Errorf("tree %d: batch plan diverges from standalone AccPar portfolio search", i)
		}
	}
}

// TestBatchCrossFleetHits verifies the metric split: hits while planning
// one candidate are intra-tree, hits on entries another candidate left
// behind count as cross-fleet amortization.
func TestBatchCrossFleetHits(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	e, err := NewBatchEngine(net, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	before := obsCrossFleetHits.Value()
	if _, err := e.PlanCtx(ctx, homTree(t, hardware.TPUv3(), 16, 64)); err != nil {
		t.Fatal(err)
	}
	if got := obsCrossFleetHits.Value() - before; got != 0 {
		t.Errorf("first candidate produced %d cross-fleet hits, want 0", got)
	}

	// A content-identical second candidate (a distinct tree object, as a
	// sweep's duplicate compositions are) digests identically, so its root
	// subproblem — the whole search — is served from the first candidate's
	// entry, and the hit counts as cross-fleet.
	before = obsCrossFleetHits.Value()
	if _, err := e.PlanCtx(ctx, homTree(t, hardware.TPUv3(), 16, 64)); err != nil {
		t.Fatal(err)
	}
	if got := obsCrossFleetHits.Value() - before; got == 0 {
		t.Error("duplicate second candidate produced no cross-fleet hits")
	}

	// Partial overlap: under fixed types and equal ratios the dims handed
	// to the TPU-v2 side depend only on that side's depth, not on what
	// hangs on the other side of the split, so candidates sharing a
	// per-kind group re-use its whole subtree across different fleets.
	dp, err := NewBatchEngine(net, DataParallel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.PlanCtx(ctx, paperTree(t, 8)); err != nil {
		t.Fatal(err)
	}
	before = obsCrossFleetHits.Value()
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 8},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 16})
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.PlanCtx(ctx, mixed); err != nil {
		t.Fatal(err)
	}
	if got := obsCrossFleetHits.Value() - before; got == 0 {
		t.Error("shared TPU-v2 side produced no cross-fleet hits")
	}

	// One-shot searches must never count cross-fleet hits, whatever the
	// engine left in the process-wide counters.
	before = obsCrossFleetHits.Value()
	if _, err := PartitionCtx(context.Background(), net, homTree(t, hardware.TPUv3(), 32, 64), AccPar()); err != nil {
		t.Fatal(err)
	}
	if got := obsCrossFleetHits.Value() - before; got != 0 {
		t.Errorf("one-shot search counted %d cross-fleet hits, want 0", got)
	}
}

// TestBatchCancellation covers the batch API mid-sweep abort contract:
// typed ErrCanceled, no goroutine leaks, and a memo left consistent —
// the same engine must afterwards produce plans byte-identical to a
// standalone search.
func TestBatchCancellation(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	set, err := NewBatchSet(net, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	tree := paperTree(t, 8)

	baseline := runtime.NumGoroutine()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := set.PlanBestCtx(canceled, tree); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled batch plan: got %v, want ErrCanceled", err)
	}
	if !errors.Is(WrapCtxErr(canceled.Err()), ErrCanceled) {
		t.Fatal("sanity: WrapCtxErr must map context.Canceled to ErrCanceled")
	}

	// Mid-search abort: cancel from a watcher goroutine while the sweep
	// runs. Whichever subproblem observes it first wins; either way the
	// typed sentinel must surface.
	midCtx, midCancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		midCancel()
	}()
	if _, _, err := set.PlanBestCtx(midCtx, tree); err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-sweep cancel: got %v, want nil or ErrCanceled", err)
	}
	midCancel()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked across canceled sweeps: %d > baseline %d", n, baseline)
	}

	// Memo consistency: the aborted sweeps published only completed
	// subproblems, so a subsequent plan through the same engines must be
	// byte-identical to a cold standalone search.
	got, _, err := set.PlanBestCtx(context.Background(), tree)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PartitionCtx(context.Background(), net, tree, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planBytes(t, got), planBytes(t, want)) {
		t.Error("post-cancel batch plan diverges from standalone search")
	}
}
