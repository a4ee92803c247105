package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"accpar/internal/dnn"
	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

// faultScenarios is the seeded property-test matrix: every fault kind,
// both groups, single and compound faults, including group loss (which
// changes the tree shape and exercises the diverged-structure fallback).
func faultScenarios(t *testing.T) []faults.Scenario {
	t.Helper()
	specs := []string{
		"slowdown:0=2.0",
		"slowdown:1=1.5",
		"membw:1=4",
		"netbw:0=8",
		"transient:1=0.05@0.001",
		"loss:1=0.25",
		"loss:0=0.5",
		"slowdown:1=3.0,netbw:1=2",
		"membw:0=2,transient:0=0.02@0.0005",
		"loss:1=0.25,slowdown:0=1.25",
	}
	out := make([]faults.Scenario, 0, len(specs))
	for i, s := range specs {
		fs, err := faults.Parse(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		sc := faults.Scenario{Seed: int64(i + 1), Faults: fs}
		if err := sc.Validate(); err != nil {
			t.Fatalf("scenario %q: %v", s, err)
		}
		out = append(out, sc)
	}
	return out
}

func degradedTreeFor(t *testing.T, groups []hardware.GroupSpec, sc faults.Scenario) *hardware.Tree {
	t.Helper()
	dgroups, err := hardware.DegradeGroups(groups, sc.Degradations())
	if err != nil {
		t.Fatal(err)
	}
	return treeFor(t, dgroups...)
}

// coldReplanReference recomputes the three replan passes with fresh
// planners and no retained state — the ground truth every incremental
// replan must match byte-for-byte.
func coldReplanReference(t *testing.T, net *dnn.Network, pristine, degraded *hardware.Tree, opt Options) *ReplanReport {
	t.Helper()
	faultFree, err := PartitionCtx(context.Background(), net, pristine, opt)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := StalePlan(net, faultFree, degraded, opt)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := PartitionCtx(context.Background(), net, degraded, opt)
	if err != nil {
		t.Fatal(err)
	}
	rep := &ReplanReport{
		FaultFree: faultFree,
		Stale:     stale,
		Fresh:     fresh,
		Replanned: fresh,
		Adopted:   fresh.Time() < stale.Time(),
	}
	if !rep.Adopted {
		rep.Replanned = stale
	}
	return rep
}

func assertReportsEqual(t *testing.T, label string, got, want *ReplanReport) {
	t.Helper()
	if got.Adopted != want.Adopted {
		t.Errorf("%s: adopted %v, want %v", label, got.Adopted, want.Adopted)
	}
	for _, pair := range []struct {
		name      string
		got, want *Plan
	}{
		{"fault-free", got.FaultFree, want.FaultFree},
		{"stale", got.Stale, want.Stale},
		{"fresh", got.Fresh, want.Fresh},
		{"replanned", got.Replanned, want.Replanned},
	} {
		g, w := planJSON(t, pair.got), planJSON(t, pair.want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s: %s plan diverged from cold reference (len %d vs %d)",
				label, pair.name, len(g), len(w))
		}
	}
}

// TestReplanEngineByteIdentical: across seeded fault scenarios, an
// engine accumulating retained state produces replans byte-identical to
// cold full searches — on first sight of each scenario (incremental
// against pristine-only state), on second sight (retained-plan and
// stale-memo hits), and after the whole matrix has churned the memo.
func TestReplanEngineByteIdentical(t *testing.T) {
	net, err := models.BuildNetwork("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(8)
	pristine := treeFor(t, groups...)
	opt := AccPar()
	e, err := NewReplanEngine(net, opt)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := faultScenarios(t)
	refs := make([]*ReplanReport, len(scenarios))
	trees := make([]*hardware.Tree, len(scenarios))
	for i, sc := range scenarios {
		trees[i] = degradedTreeFor(t, groups, sc)
		refs[i] = coldReplanReference(t, net, pristine, trees[i], opt)
	}
	for round := 0; round < 2; round++ {
		for i := range scenarios {
			rep, st, err := e.ReplanCtx(context.Background(), pristine, trees[i])
			if err != nil {
				t.Fatalf("round %d scenario %d: %v", round, i, err)
			}
			label := fmt.Sprintf("round %d scenario %d", round, i)
			assertReportsEqual(t, label, rep, refs[i])
			if round > 0 && st.Expanded != 0 {
				t.Errorf("%s: recurrent scenario expanded %d subproblems, want 0", label, st.Expanded)
			}
			if round > 0 && st.IncrementalHits == 0 {
				t.Errorf("%s: recurrent scenario reported no incremental hits", label)
			}
		}
	}
}

// TestReplanEngineInvalidation: churning more distinct degraded trees
// than the working set holds triggers dependency invalidation (reported
// via stats and the core.replan_invalidated counter), and replans stay
// byte-identical throughout — including for a scenario whose entries
// were invalidated and must re-solve.
func TestReplanEngineInvalidation(t *testing.T) {
	net, err := models.BuildNetwork("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(4)
	pristine := treeFor(t, groups...)
	e, err := NewReplanEngine(net, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	e.recentCap = 4 // shrink the working set so churn forces eviction
	sc0 := faults.Scenario{Seed: 1, Faults: []faults.Fault{{Kind: faults.KindSlowdown, Group: 1, Factor: 2}}}
	tree0 := degradedTreeFor(t, groups, sc0)
	ref0 := coldReplanReference(t, net, pristine, tree0, AccPar())
	rep, _, err := e.ReplanCtx(context.Background(), pristine, tree0)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, "initial", rep, ref0)

	var invalidated int64
	for i := 0; i < 12; i++ {
		sc := faults.Scenario{Seed: int64(i), Faults: []faults.Fault{
			{Kind: faults.KindSlowdown, Group: 1, Factor: 1.25 + 0.25*float64(i)},
		}}
		tree := degradedTreeFor(t, groups, sc)
		ref := coldReplanReference(t, net, pristine, tree, AccPar())
		rep, st, err := e.ReplanCtx(context.Background(), pristine, tree)
		if err != nil {
			t.Fatal(err)
		}
		assertReportsEqual(t, fmt.Sprintf("churn %d", i), rep, ref)
		invalidated += st.Invalidated
	}
	if invalidated == 0 {
		t.Error("churn past the working-set capacity invalidated nothing")
	}
	// sc0's entries were churned out; the replan must silently re-solve.
	rep, _, err = e.ReplanCtx(context.Background(), pristine, tree0)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, "after churn", rep, ref0)
}

// TestReplanEngineCancelConsistency: aborted incremental replans report
// the typed sentinel, publish no report, and never leave
// partially-invalidated or partially-solved state — a subsequent live
// call is byte-identical to the cold reference.
func TestReplanEngineCancelConsistency(t *testing.T) {
	net, err := models.BuildNetwork("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3Groups(8)
	pristine := treeFor(t, groups...)
	sc := faults.Scenario{Seed: 7, Faults: []faults.Fault{{Kind: faults.KindSlowdown, Group: 0, Factor: 3}}}
	degraded := degradedTreeFor(t, groups, sc)
	ref := coldReplanReference(t, net, pristine, degraded, AccPar())

	e, err := NewReplanEngine(net, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	// Pre-canceled context: aborts at the first probe.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := e.ReplanCtx(canceled, pristine, degraded); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled replan: got %v, want ErrCanceled", err)
	}
	// Mid-flight deadlines at increasing budgets abort at interior probes.
	for _, budget := range []time.Duration{50 * time.Microsecond, 500 * time.Microsecond, 2 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		_, _, err := e.ReplanCtx(ctx, pristine, degraded)
		cancel()
		if err != nil && !errors.Is(err, ErrDeadlineExceeded) {
			t.Fatalf("deadline %v: got %v, want nil or ErrDeadlineExceeded", budget, err)
		}
	}
	// Whatever the aborted calls left behind, a live call matches cold.
	rep, _, err := e.ReplanCtx(context.Background(), pristine, degraded)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, "after aborts", rep, ref)
	// And recurrent replans (served from retained state) still match.
	rep, _, err = e.ReplanCtx(context.Background(), pristine, degraded)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, "retained after aborts", rep, ref)
}

// TestReplanEnginesRegistry: the registry hands back the same engine for
// content-equal (network, options) pairs across distinct network
// objects, bounds resident engines, and its portfolio partition is
// byte-identical to the one-shot portfolio.
func TestReplanEnginesRegistry(t *testing.T) {
	netA, err := models.BuildNetwork("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	netB, err := models.BuildNetwork("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewReplanEngines(4)
	e1, err := reg.Engine(netA, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	e2, err := reg.Engine(netB, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Error("content-equal networks resolved to distinct engines")
	}
	netC, err := models.BuildNetwork("lenet", 32)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := reg.Engine(netC, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e1 {
		t.Error("different batch resolved to the same engine")
	}
	for i := 0; i < 8; i++ {
		opt := AccPar()
		opt.MaxRatioIters = 4 + i
		if _, err := reg.Engine(netA, opt); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.Len(); n > 4 {
		t.Errorf("registry holds %d engines, capacity 4", n)
	}

	tree := treeFor(t, v2v3Groups(4)...)
	want, err := PartitionCtx(context.Background(), netA, tree, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, _, err := reg.PartitionCtx(context.Background(), netA, tree, StrategyAccPar.Variants()...)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(planJSON(t, got), planJSON(t, want)) {
			t.Errorf("round %d: registry portfolio plan diverged from one-shot portfolio", round)
		}
	}
}
