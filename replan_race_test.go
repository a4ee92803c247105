package accpar

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// replanReportsEqual compares every plan in two replan reports
// byte-for-byte plus the adoption decision.
func replanReportsEqual(t *testing.T, got, want *ReplanReport) error {
	t.Helper()
	if got.Adopted != want.Adopted {
		return fmt.Errorf("adopted %v, reference %v", got.Adopted, want.Adopted)
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
		if !bytes.Equal(planBytes(t, pair.got), planBytes(t, pair.want)) {
			return fmt.Errorf("%s plan differs from cacheless reference", pair.name)
		}
	}
	return nil
}

// TestSessionReplanHammerRace hammers one Session (run under -race) with
// concurrent Degrade→Replan cycles over several fault scenarios,
// interleaved with pristine Partition and Resilience calls. Every worker
// shares the session's one plan cache — the AccPar replans all land on
// one fingerprint memo — so the hammer exercises that store (plain
// subproblems, recurrent tree roots and stale re-costings alike) under
// contention. Every result must stay byte-identical
// to its cacheless fresh-computation reference, and after the hammer a
// recurrent replan must be served entirely from retained state.
func TestSessionReplanHammerRace(t *testing.T) {
	net, err := BuildModel("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3ResilienceGroups(4)
	arr, err := HeterogeneousArray(groups...)
	if err != nil {
		t.Fatal(err)
	}
	// Scenario mix: throttles on both groups plus a group loss (the loss
	// changes the degraded tree's shape, exercising the diverged-structure
	// fallback concurrently with aligned incremental replans).
	specs := []string{
		"slowdown:0=2.0",
		"slowdown:1=1.5",
		"membw:1=4",
		"loss:1=0.25",
	}
	scenarios := make([]*FaultScenario, len(specs))
	wantReplan := make([]*ReplanReport, len(specs))
	for i, spec := range specs {
		fl, err := ParseFaults(spec)
		if err != nil {
			t.Fatal(err)
		}
		scenarios[i] = &FaultScenario{Seed: int64(i + 1), Faults: fl}
		wantReplan[i], err = ReplanAnalytic(net, groups, StrategyAccPar, scenarios[i])
		if err != nil {
			t.Fatalf("reference replan %q: %v", spec, err)
		}
	}
	wantPlan, err := Partition(net, arr, StrategyAccPar)
	if err != nil {
		t.Fatal(err)
	}
	want := planBytes(t, wantPlan)
	wantRes, err := Resilience(net, groups, StrategyAccPar, *scenarios[0], SimConfig{})
	if err != nil {
		t.Fatal(err)
	}

	sess := NewSession(0)
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 12 {
		workers = 12
	}
	const cycles = 3
	var wg sync.WaitGroup
	errs := make(chan error, workers*cycles)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := 0; c < cycles; c++ {
				switch w % 6 {
				case 0:
					plan, err := sess.Partition(net, arr, StrategyAccPar)
					if err != nil {
						errs <- fmt.Errorf("worker %d Partition: %w", w, err)
						return
					}
					if !bytes.Equal(planBytes(t, plan), want) {
						errs <- fmt.Errorf("worker %d: pristine plan differs from serial reference", w)
					}
				case 1:
					rep, err := sess.Resilience(net, groups, StrategyAccPar, *scenarios[0], SimConfig{})
					if err != nil {
						errs <- fmt.Errorf("worker %d Resilience: %w", w, err)
						return
					}
					if rep.Adopted != wantRes.Adopted {
						errs <- fmt.Errorf("worker %d: resilience adoption %v, reference %v", w, rep.Adopted, wantRes.Adopted)
					}
					if !bytes.Equal(planBytes(t, rep.ReplannedPlan), planBytes(t, wantRes.ReplannedPlan)) {
						errs <- fmt.Errorf("worker %d: resilience replanned plan differs from reference", w)
					}
				default:
					i := w % len(scenarios)
					rep, err := sess.Replan(net, groups, StrategyAccPar, scenarios[i])
					if err != nil {
						errs <- fmt.Errorf("worker %d Replan %q: %w", w, specs[i], err)
						return
					}
					if err := replanReportsEqual(t, rep, wantReplan[i]); err != nil {
						errs <- fmt.Errorf("worker %d Replan %q: %w", w, specs[i], err)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The hammer left the session cache consistent AND complete:
	// a recurrent replan of every scenario is served without expanding a
	// single subproblem, and still matches its reference.
	for i, sc := range scenarios {
		rep, err := sess.Replan(net, groups, StrategyAccPar, sc)
		if err != nil {
			t.Fatalf("recurrent replan %q: %v", specs[i], err)
		}
		if err := replanReportsEqual(t, rep, wantReplan[i]); err != nil {
			t.Errorf("recurrent replan %q: %v", specs[i], err)
		}
		if rep.Stats.Expanded != 0 {
			t.Errorf("recurrent replan %q expanded %d subproblems, want 0", specs[i], rep.Stats.Expanded)
		}
		if rep.Stats.IncrementalHits == 0 {
			t.Errorf("recurrent replan %q reported no incremental hits", specs[i])
		}
	}
}
