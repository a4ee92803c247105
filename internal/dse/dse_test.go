package dse

import (
	"bytes"
	"context"
	"errors"
	"math"
	"testing"

	"accpar/internal/core"
	"accpar/internal/dnn"
	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

func buildNet(t *testing.T, name string, batch int) *dnn.Network {
	t.Helper()
	net, err := models.BuildNetwork(name, batch)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// kindIndexOf maps each kind name of the space to its index, as Sweep
// does before it calls degradedTree.
func kindIndexOf(s *Space) map[string]int {
	idx := make(map[string]int, len(s.Kinds))
	for i, k := range s.Kinds {
		idx[k.Name] = i
	}
	return idx
}

// smallSpace is the test grid: two kinds, modest counts, two level
// caps, two link tiers — 54 candidates, seconds to sweep in full.
func smallSpace() *Space {
	return &Space{
		Kinds: []Kind{
			{Name: "tpu-v2", Spec: hardware.TPUv2(), Price: 1.0},
			{Name: "tpu-v3", Spec: hardware.TPUv3(), Price: 2.2},
		},
		Counts:    []int{0, 4, 8},
		Levels:    []int{2, 8, 64},
		NetScales: []float64{1, 2},
	}
}

func TestEnumerateDeterministicAndFiltered(t *testing.T) {
	s := smallSpace()
	a, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("enumeration not reproducible: %d vs %d candidates", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("candidate %d order differs: %s vs %s", i, a[i].Name, b[i].Name)
		}
		if seen[a[i].Name] {
			t.Errorf("duplicate candidate name %s", a[i].Name)
		}
		seen[a[i].Name] = true
		if a[i].Cost <= 0 {
			t.Errorf("candidate %s has non-positive cost %g", a[i].Name, a[i].Cost)
		}
	}

	budget := a[0].Cost
	s.Budget = budget
	capped, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) == 0 || len(capped) >= len(a) {
		t.Fatalf("budget %g kept %d of %d candidates, expected a strict non-empty subset", budget, len(capped), len(a))
	}
	for _, c := range capped {
		if c.Cost > budget {
			t.Errorf("candidate %s cost %g exceeds budget %g", c.Name, c.Cost, budget)
		}
	}

	s.Budget = 0
	s.MaxCandidates = 5
	truncated, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	if len(truncated) != 5 {
		t.Fatalf("MaxCandidates=5 returned %d candidates", len(truncated))
	}
	for i := range truncated {
		if truncated[i].Name != a[i].Name {
			t.Errorf("truncation changed order at %d: %s vs %s", i, truncated[i].Name, a[i].Name)
		}
	}
}

func TestNetScaleRenamesSpecs(t *testing.T) {
	s := smallSpace()
	cands, err := s.Enumerate()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cands {
		for _, g := range c.Groups() {
			base := hardware.Presets()[c.Kinds[0]]
			_ = base
			if c.NetScale == 1 {
				if g.Spec.Name != "tpu-v2" && g.Spec.Name != "tpu-v3" {
					t.Fatalf("unscaled candidate %s uses renamed spec %s", c.Name, g.Spec.Name)
				}
				continue
			}
			if g.Spec.Name == "tpu-v2" || g.Spec.Name == "tpu-v3" {
				t.Fatalf("scaled candidate %s aliases base spec %s — fingerprints would collide", c.Name, g.Spec.Name)
			}
		}
	}
}

// TestDSEPlanEquivalence is the acceptance check: every candidate's
// plan, produced through the sweep-shared batch memos, is byte-identical
// to a standalone AccPar portfolio search of the same tree, and every
// candidate the fault afflicts reports the resilience a standalone
// core.ReplanCtx of its winning variant adopts. The fault rows cover a
// slowdown (the degraded tree keeps the plan's structure), a group loss
// (fewer boards, so the stale walk falls back to fresh partitions where
// the structure diverges) and both at once.
func TestDSEPlanEquivalence(t *testing.T) {
	for _, fault := range []string{"slowdown:0=2.0", "loss:1=0.25", "slowdown:0=1.5,membw:1=2.0,loss:1=0.25"} {
		t.Run(fault, func(t *testing.T) {
			space := smallSpace()
			cfg := Config{Model: "resnet18", Batch: 64, Fault: fault, Workers: 4, KeepPlans: true}
			rep, err := Sweep(context.Background(), space, cfg)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := faults.Parse(cfg.Fault)
			if err != nil {
				t.Fatal(err)
			}
			scenario := &faults.Scenario{Faults: fs}
			net := buildNet(t, cfg.Model, cfg.Batch)
			variants := core.StrategyAccPar.Variants()
			faulted := 0
			for _, r := range rep.Results {
				tree, err := r.Tree()
				if err != nil {
					t.Fatal(err)
				}
				want, err := core.PartitionCtx(context.Background(), net, tree, variants...)
				if err != nil {
					t.Fatalf("%s standalone: %v", r.Name, err)
				}
				var buf bytes.Buffer
				if err := want.WriteJSON(&buf); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(r.PlanJSON, buf.Bytes()) {
					t.Errorf("%s: sweep plan diverges from standalone AccPar portfolio search", r.Name)
				}
				if r.Makespan != want.Time() {
					t.Errorf("%s: sweep makespan %v != standalone %v", r.Name, r.Makespan, want.Time())
				}

				degraded, err := degradedTree(&r.Candidate, scenario, kindIndexOf(space))
				if err != nil {
					t.Fatal(err)
				}
				if degraded == nil {
					if r.Resilience != r.Makespan {
						t.Errorf("%s: unfaulted resilience %v != makespan %v", r.Name, r.Resilience, r.Makespan)
					}
					continue
				}
				replan, err := core.ReplanCtx(context.Background(), net, tree, degraded, variants[r.Variant])
				if err != nil {
					t.Fatalf("%s standalone replan: %v", r.Name, err)
				}
				if got := replan.Replanned.Time(); r.Resilience != got {
					t.Errorf("%s: sweep resilience %v != standalone replan %v", r.Name, r.Resilience, got)
				}
				faulted++
			}
			if faulted == 0 {
				t.Fatal("no candidate carries a faulted kind")
			}
			t.Logf("%d candidates checked, %d of them under the fault", len(rep.Results), faulted)
		})
	}
}

// TestSweepDeterministicAcrossWorkers asserts the CI property: the
// frontier artifact is byte-identical across worker-pool sizes.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	space := smallSpace()
	space.MaxCandidates = 16
	var outs [][]byte
	for _, workers := range []int{1, 4} {
		cfg := Config{Model: "alexnet", Batch: 64, Fault: "slowdown:0=2.0,loss:1=0.25", Workers: workers}
		rep, err := Sweep(context.Background(), space, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rep.WriteFrontierJSON(&buf); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, buf.Bytes())
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Errorf("frontier differs across worker counts:\n%s\nvs\n%s", outs[0], outs[1])
	}
}

func TestSweepCancellation(t *testing.T) {
	space := smallSpace()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Sweep(ctx, space, Config{Model: "alexnet", Batch: 64, Workers: 4}); !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("pre-canceled sweep: got %v, want core.ErrCanceled", err)
	}
}

func TestSweepRejectsBadInputs(t *testing.T) {
	ctx := context.Background()
	if _, err := Sweep(ctx, &Space{}, Config{Model: "alexnet", Batch: 64}); err == nil {
		t.Error("empty space must be rejected")
	}
	if _, err := Sweep(ctx, smallSpace(), Config{Model: "no-such-model", Batch: 64}); err == nil {
		t.Error("unknown model must be rejected")
	}
	if _, err := Sweep(ctx, smallSpace(), Config{Model: "alexnet", Batch: 64, Fault: "bogus:spec"}); err == nil {
		t.Error("malformed fault spec must be rejected")
	}
	tight := smallSpace()
	tight.Budget = 0.001
	if _, err := Sweep(ctx, tight, Config{Model: "alexnet", Batch: 64}); err == nil {
		t.Error("budget excluding every candidate must be rejected")
	}
	nan := smallSpace()
	nan.Budget = math.NaN()
	if _, err := Sweep(ctx, nan, Config{Model: "alexnet", Batch: 64}); err == nil {
		t.Error("NaN budget must be rejected")
	}
	inf := smallSpace()
	inf.NetScales = []float64{1, math.Inf(1)}
	if _, err := Sweep(ctx, inf, Config{Model: "alexnet", Batch: 64}); err == nil {
		t.Error("infinite net scale must be rejected")
	}
	// An infinite price costs every candidate that procures the kind at
	// +Inf, which the frontier artifact cannot encode.
	infPrice := smallSpace()
	infPrice.Kinds[0].Price = math.Inf(1)
	if _, err := Sweep(ctx, infPrice, Config{Model: "alexnet", Batch: 64}); err == nil {
		t.Error("infinite kind price must be rejected")
	}
}
