package core

import (
	"bytes"
	"context"
	"testing"

	"accpar/internal/obs"
)

// TestObservationEquivalence is the "observation must never perturb
// decisions" contract (the tracing analogue of TestParallelismEquivalence
// and TestCacheEquivalence): the plan produced with a tracer attached is
// byte-identical to the plan produced with observability disabled, and
// the tracer actually captured the planner's spans — a vacuously passing
// no-op tracer would prove nothing.
func TestObservationEquivalence(t *testing.T) {
	net := buildNet(t, "resnet50", 64)
	tree := paperTree(t, 4)

	obs.SetTracer(nil)
	plain, err := PartitionCtx(context.Background(), net, tree, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	want := planJSON(t, plain)

	tr := obs.NewTracer()
	obs.SetTracer(tr)
	defer obs.SetTracer(nil)
	traced, err := PartitionCtx(context.Background(), net, tree, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	if got := planJSON(t, traced); !bytes.Equal(got, want) {
		t.Errorf("plan differs with tracing enabled (%d vs %d bytes)", len(got), len(want))
	}

	events := tr.Events()
	if len(events) == 0 {
		t.Fatal("tracer captured no planner spans")
	}
	begins, ends := 0, 0
	sawPlan, sawLevel := false, false
	for _, e := range events {
		switch e.Ph {
		case "b":
			begins++
		case "e":
			ends++
		}
		if e.Name == "plan" {
			sawPlan = true
		}
		if e.Cat == "planner" && e.Name != "plan" {
			sawLevel = true
		}
	}
	if begins == 0 || begins != ends {
		t.Errorf("%d begin / %d end events; want matched non-zero pairs", begins, ends)
	}
	if !sawPlan || !sawLevel {
		t.Errorf("missing expected spans (plan=%v, level=%v)", sawPlan, sawLevel)
	}
}

// TestMetricsCountSubproblems: one uncached search must expand at least
// one subproblem per hierarchy level and record its memo hits — the
// counters are wired into the live code paths, not just declared.
func TestMetricsCountSubproblems(t *testing.T) {
	net := buildNet(t, "vgg16", 64)
	tree := paperTree(t, 4)

	before := obs.Default().Snapshot()
	if _, err := PartitionCtx(context.Background(), net, tree, AccPar()); err != nil {
		t.Fatal(err)
	}
	after := obs.Default().Snapshot()

	if d := after.Counters["core.subproblems_expanded"] - before.Counters["core.subproblems_expanded"]; d <= 0 {
		t.Errorf("subproblems_expanded grew by %d; want > 0", d)
	}
	if d := after.Counters["core.memo_hits"] - before.Counters["core.memo_hits"]; d <= 0 {
		// The homogeneous halves of paperTree hand both children identical
		// subproblems, so a memo hit is guaranteed.
		t.Errorf("memo_hits grew by %d; want > 0", d)
	}
	if d := after.Counters["core.bisection_iterations"] - before.Counters["core.bisection_iterations"]; d <= 0 {
		t.Errorf("bisection_iterations grew by %d; want > 0", d)
	}
}
