package core

import (
	"context"
	"strings"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/hardware"
)

func TestExplainAlexnet(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	plan, err := PartitionCtx(context.Background(), net, paperTree(t, 4), StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	exs, err := plan.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) != 8 {
		t.Fatalf("explanations = %d, want 8 weighted layers", len(exs))
	}
	for _, ex := range exs {
		// Every candidate cost is present and positive.
		for _, ty := range cost.Types {
			if !(ex.UnitCost[ty] > 0) {
				t.Errorf("%s: cost(%v) = %g", ex.Unit, ty, ex.UnitCost[ty])
			}
			if !(ex.IntraBytes[ty] > 0) {
				t.Errorf("%s: intra bytes(%v) = %g", ex.Unit, ty, ex.IntraBytes[ty])
			}
		}
		if ex.InEdgeCost < 0 || ex.OutEdgeCost < 0 {
			t.Errorf("%s: negative conversion cost", ex.Unit)
		}
	}
	s, err := plan.ExplainString()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"cv1", "fc3", "chosen", "alpha"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered explanation missing %q", want)
		}
	}
}

// TestExplainChosenIsReasonable: for layers with no conversion pressure
// (uniform-type neighbours under data parallelism), the chosen type has
// the minimum standalone cost.
func TestExplainChosenIsReasonable(t *testing.T) {
	net := buildNet(t, "lenet", 16)
	plan, err := PartitionCtx(context.Background(), net, paperTree(t, 2), DataParallel())
	if err != nil {
		t.Fatal(err)
	}
	exs, err := plan.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range exs {
		if ex.Chosen != cost.TypeI {
			t.Errorf("%s: DP plan chose %v", ex.Unit, ex.Chosen)
		}
	}
}

func TestExplainLeafOnlyPlan(t *testing.T) {
	net := buildNet(t, "lenet", 16)
	arr, _ := hardware.NewHomogeneous(hardware.TPUv3(), 1)
	tree, _ := hardware.BuildTree(arr, 4)
	plan, err := PartitionCtx(context.Background(), net, tree, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.Explain(); err == nil {
		t.Error("leaf-only plan must refuse explanation")
	}
}

// TestExplainUsesSearchOptions: Explain must price the root split under
// the options the plan was searched with, so its cost for the chosen type
// equals what the search itself weighed (the audit's winner cost). An
// inference-mode plan priced as training overstates unit costs by orders
// of magnitude, and a comm-only plan priced in seconds instead of bytes
// is off by a factor of ~1e11.
func TestExplainUsesSearchOptions(t *testing.T) {
	inference := AccPar()
	inference.Mode = ModeInference
	commOnly := AccPar()
	commOnly.Objective = ObjectiveCommOnly
	for _, tc := range []struct {
		name string
		opt  Options
		unit string
	}{
		{"inference", inference, "seconds"},
		{"comm-only", commOnly, "bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := buildNet(t, "alexnet", 64)
			rec := NewAuditRecorder()
			opt := tc.opt
			opt.Audit = rec
			plan, err := PartitionCtx(context.Background(), net, paperTree(t, 4), opt)
			if err != nil {
				t.Fatal(err)
			}
			var root *AuditSubproblem
			rep := rec.Report()
			for i := range rep.Subproblems {
				s := &rep.Subproblems[i]
				if s.Level == 1 && s.Group == plan.Root.GroupDesc && s.Provenance == ProvenanceCold && !s.Leaf {
					root = s
					break
				}
			}
			if root == nil {
				t.Fatal("no cold root-split record in audit")
			}
			exs, err := plan.Explain()
			if err != nil {
				t.Fatal(err)
			}
			if len(exs) != len(root.Units) {
				t.Fatalf("Explain has %d units; audit has %d", len(exs), len(root.Units))
			}
			for i, ex := range exs {
				for _, cand := range root.Units[i].Candidates {
					if cand.Reason != ReasonWon {
						continue
					}
					if got := ex.UnitCost[ex.Chosen]; got != cand.CostSeconds {
						t.Errorf("%s: Explain prices chosen %v at %g; the search weighed %g", ex.Unit, ex.Chosen, got, cand.CostSeconds)
					}
				}
			}
			s, err := plan.ExplainString()
			if err != nil {
				t.Fatal(err)
			}
			if want := "per-layer costs in " + tc.unit; !strings.Contains(s, want) {
				t.Errorf("rendered explanation lacks %q:\n%s", want, s)
			}
		})
	}
}
