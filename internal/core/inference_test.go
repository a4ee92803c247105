package core

import (
	"context"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/tensor"
)

// TestInferenceFasterThanTraining: forward-only iterations cost a fraction
// of training iterations under any strategy.
func TestInferenceFasterThanTraining(t *testing.T) {
	net := buildNet(t, "vgg16", 64)
	tree := paperTree(t, 4)
	for _, mkOpt := range []func() Options{AccPar, DataParallel} {
		train := mkOpt()
		infer := mkOpt()
		infer.Mode = ModeInference
		pt, err := PartitionCtx(context.Background(), net, tree, train)
		if err != nil {
			t.Fatal(err)
		}
		pi, err := PartitionCtx(context.Background(), net, tree, infer)
		if err != nil {
			t.Fatal(err)
		}
		if pi.Time() >= pt.Time() {
			t.Errorf("inference %.4g not faster than training %.4g", pi.Time(), pt.Time())
		}
		// Training performs ≥3× inference's arithmetic; with communication
		// the time ratio should still be clearly above 1.5.
		if pt.Time()/pi.Time() < 1.5 {
			t.Errorf("training/inference ratio %.2f suspiciously low", pt.Time()/pi.Time())
		}
	}
}

// TestInferenceDataParallelIsFree: under inference, Type-I incurs no
// intra-layer exchange at all, so a DP plan's per-level communication is
// only boundary conversions (zero for uniform Type-I) — DP inference on a
// homogeneous array communicates nothing.
func TestInferenceDataParallelIsFree(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	tree := paperTree(t, 4)
	opt := DataParallel()
	opt.Mode = ModeInference
	plan, err := PartitionCtx(context.Background(), net, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.CommBytes(); got != 0 {
		t.Errorf("inference DP comm bytes = %g, want 0", got)
	}
}

// TestInferenceShiftsTypeChoices: without gradient synchronization,
// Type-I's biggest liability disappears, so AccPar's inference plans use
// Type-I at least as much as its training plans.
func TestInferenceShiftsTypeChoices(t *testing.T) {
	net := buildNet(t, "vgg11", 64)
	tree := paperTree(t, 4)
	train, err := PartitionCtx(context.Background(), net, tree, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	opt := AccPar()
	opt.Mode = ModeInference
	infer, err := PartitionCtx(context.Background(), net, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	if infer.TypeHistogram()[cost.TypeI] < train.TypeHistogram()[cost.TypeI] {
		t.Errorf("inference Type-I count %d below training %d",
			infer.TypeHistogram()[cost.TypeI], train.TypeHistogram()[cost.TypeI])
	}
}

// TestInferenceIntraTable: the forward-only intra amounts.
func TestInferenceIntraTable(t *testing.T) {
	d := tensor.FC(8, 16, 32)
	if got := intraCommElementsInference(cost.TypeI, d); got != 0 {
		t.Errorf("Type-I inference intra = %d, want 0", got)
	}
	if got := intraCommElementsInference(cost.TypeII, d); got != d.AFNext() {
		t.Errorf("Type-II inference intra = %d, want A(F_next)", got)
	}
	if got := intraCommElementsInference(cost.TypeIII, d); got != 0 {
		t.Errorf("Type-III inference intra = %d, want 0", got)
	}
}

// TestInterCommSplitSumsToTable5: fwd + bwd components reproduce
// InterCommElements for all nine patterns.
func TestInterCommSplitSumsToTable5(t *testing.T) {
	const b = 1000
	alpha, beta := 0.7, 0.3
	for _, p := range cost.Types {
		for _, n := range cost.Types {
			f, e := cost.InterCommSplit(p, n, b, alpha, beta)
			want := cost.InterCommElements(p, n, b, alpha, beta)
			if diff := f + e - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%v→%v: split %g+%g != total %g", p, n, f, e, want)
			}
		}
	}
}

func TestModeString(t *testing.T) {
	if ModeTraining.String() != "training" || ModeInference.String() != "inference" {
		t.Error("mode names")
	}
}
