package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"accpar/internal/hardware"
)

// TestAuditEquivalence is the "observation must never perturb decisions"
// contract for the search audit (the audit analogue of
// TestObservationEquivalence): the plan produced with a recorder attached
// is byte-identical to the plan produced without one, and the recorder
// actually captured the search's decisions.
func TestAuditEquivalence(t *testing.T) {
	net := buildNet(t, "resnet50", 64)
	tree := paperTree(t, 4)

	plain, err := PartitionCtx(context.Background(), net, tree, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	want := planJSON(t, plain)

	opt := AccPar()
	opt.Audit = NewAuditRecorder()
	audited, err := PartitionCtx(context.Background(), net, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := planJSON(t, audited); !bytes.Equal(got, want) {
		t.Errorf("plan differs with audit enabled (%d vs %d bytes)", len(got), len(want))
	}

	rep := audited.SearchAudit()
	if rep == nil {
		t.Fatal("SearchAudit() nil on an audited plan")
	}
	if rep.Totals.Cold == 0 {
		t.Error("audit recorded no cold subproblems")
	}
	if rep.Totals.MemoHits == 0 {
		// The homogeneous halves of paperTree hand both children identical
		// subproblems, so a memo hit is guaranteed.
		t.Error("audit recorded no memo-hit provenance")
	}
	if plain.SearchAudit() != nil {
		t.Error("SearchAudit() non-nil on an unaudited plan")
	}

	// The report is deterministic (sorted + deduplicated), so a serial
	// re-run must reproduce it byte for byte.
	serial := AccPar()
	serial.Parallelism = 1
	serial.Audit = NewAuditRecorder()
	if _, err := PartitionCtx(context.Background(), net, tree, serial); err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(serial.Audit.Report())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("audit report differs between parallel and serial searches")
	}
}

// TestAuditGoldenSmallFleet pins the audit against the production search
// on a small FC workload: the portfolio's adopted audit must name exactly
// the winner the AccPar portfolio search returns, with per-unit costs
// matching the Explain cost model.
func TestAuditGoldenSmallFleet(t *testing.T) {
	net := buildNet(t, "mlp", 64)
	tree := paperTree(t, 2)

	want, err := PartitionCtx(context.Background(), net, tree, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}

	rec := NewAuditRecorder()
	variants := StrategyAccPar.Variants()
	for i := range variants {
		variants[i].Audit = rec
	}
	plan, err := PartitionCtx(context.Background(), net, tree, variants...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, plan), planJSON(t, want)) {
		t.Fatal("audited portfolio plan differs from the AccPar portfolio search")
	}

	rep := rec.Report()
	var root *AuditSubproblem
	for i := range rep.Subproblems {
		s := &rep.Subproblems[i]
		if s.Level == 1 && s.Group == plan.Root.GroupDesc && s.Provenance == ProvenanceCold && !s.Leaf {
			root = s
			break
		}
	}
	if root == nil {
		t.Fatalf("no cold root-split record in audit (%d subproblems)", len(rep.Subproblems))
	}
	if root.Alpha != plan.Root.Alpha {
		t.Errorf("recorded alpha %g; plan chose %g", root.Alpha, plan.Root.Alpha)
	}

	exs, err := plan.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if len(root.Units) != len(exs) {
		t.Fatalf("audit has %d units; Explain has %d", len(root.Units), len(exs))
	}
	for i, au := range root.Units {
		ex := exs[i]
		if au.Unit != ex.Unit {
			t.Fatalf("unit %d: audit %q vs Explain %q", i, au.Unit, ex.Unit)
		}
		if au.Chosen != ex.Chosen.Short() {
			t.Errorf("unit %s: audit winner %s; plan chose %s", au.Unit, au.Chosen, ex.Chosen.Short())
		}
		sawWinner := false
		for _, cand := range au.Candidates {
			if cand.Reason == ReasonWon {
				sawWinner = true
				if cand.Type != au.Chosen {
					t.Errorf("unit %s: 'won' on %s but chosen is %s", au.Unit, cand.Type, au.Chosen)
				}
				if got, want := cand.CostSeconds, ex.UnitCost[ex.Chosen]; got != want {
					t.Errorf("unit %s: recorded winner cost %g; Explain prices %g", au.Unit, got, want)
				}
			}
		}
		if !sawWinner {
			t.Errorf("unit %s: no candidate marked %q", au.Unit, ReasonWon)
		}
	}
}

// TestAuditRejectShowsCapacityFloorPrune: a reject-mode search over a
// fleet whose HBM fits nothing must fail with the typed error AND leave
// an audit trail naming the capacity-floor prune — the lower-bound
// pruning made visible.
func TestAuditRejectShowsCapacityFloorPrune(t *testing.T) {
	net := buildNet(t, "mlp", 64)
	tiny := hardware.TPUv2()
	tiny.HBMBytes = 1 << 20 // 1 MiB: nothing fits
	tree := twoAccelTree(t, tiny, tiny)

	opt := AccPar()
	opt.MemoryLimit = MemoryReject
	opt.Audit = NewAuditRecorder()
	_, err := PartitionCtx(context.Background(), net, tree, opt)
	var nfe *NoFeasiblePlanError
	if !errors.As(err, &nfe) {
		t.Fatalf("got %v; want *NoFeasiblePlanError", err)
	}

	rep := opt.Audit.Report()
	if rep.Totals.CapacityFloorPruned == 0 {
		t.Fatal("audit recorded no capacity-floor prune")
	}
	// The deepest pruned split sits just above the tightest leaf; its
	// floor numbers must show the impossibility the error reports.
	var pruned *AuditSubproblem
	for i := range rep.Subproblems {
		s := &rep.Subproblems[i]
		if s.Memory != nil && s.Memory.Outcome == OutcomeCapacityFloorPruned {
			if pruned == nil || s.Level > pruned.Level {
				pruned = s
			}
		}
	}
	if pruned.Memory.NeedBytes <= pruned.Memory.FloorBytes {
		t.Errorf("pruned record need %d ≤ floor %d; prune reason must show the overflow",
			pruned.Memory.NeedBytes, pruned.Memory.FloorBytes)
	}
	if nfe.ResidencyBytes <= nfe.CapacityBytes {
		t.Errorf("error carries residency %d ≤ capacity %d", nfe.ResidencyBytes, nfe.CapacityBytes)
	}
}

// TestAuditParallelismStable: the search audit explains a plan from the
// captured artifact alone only if the artifact does not depend on
// Parallelism or scheduling. The -explain-search document of the
// ResNet-50 (batch 512) portfolio, which keeps only the winning option
// set's records, must be byte-identical at Parallelism 1, 2 and 8, on
// 32+32 boards and on v2:32,v3:32,v2:32,v3:32, whose unequal halves, 64
// TPU-v2 and 64 TPU-v3 boards, each hold identical halves linked as one
// node. CI runs each fleet under -race with -cpu 4 and a -count of 10 or
// 20.
func TestAuditParallelismStable(t *testing.T) {
	net := buildNet(t, "resnet50", 512)
	v2, v3 := hardware.TPUv2(), hardware.TPUv3()
	for _, fleet := range []struct {
		name string
		tree *hardware.Tree
	}{
		{"32+32", paperTree(t, 32)},
		{"v2:32,v3:32,v2:32,v3:32", treeFor(t,
			hardware.GroupSpec{Spec: v2, Count: 32}, hardware.GroupSpec{Spec: v3, Count: 32},
			hardware.GroupSpec{Spec: v2, Count: 32}, hardware.GroupSpec{Spec: v3, Count: 32})},
	} {
		t.Run(fleet.name, func(t *testing.T) {
			var want []byte
			for _, workers := range []int{1, 2, 8} {
				rec := NewAuditRecorder()
				opts := portfolioAt(workers)
				for i := range opts {
					opts[i].Audit = rec
				}
				if _, err := PartitionCtx(context.Background(), net, fleet.tree, opts...); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := rec.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
					continue
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("audit at Parallelism %d differs from the serial audit (%d vs %d bytes)", workers, buf.Len(), len(want))
				}
			}
		})
	}
}
