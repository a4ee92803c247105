package accpar

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"accpar/internal/core"
	"accpar/internal/hardware"
)

func planBytes(t *testing.T, p *Plan) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := p.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestSessionCompareMatchesSerial: the cache-sharing Compare, whose one
// portfolio run answers all four strategies, must produce plans
// byte-identical to four independent Partition calls, on the two-kind
// paper fleet and on a fleet of three board kinds.
func TestSessionCompareMatchesSerial(t *testing.T) {
	net, err := BuildModel("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := ParseFleet("edge-npu:3,tpu-v2:2,tpu-v3:3")
	if err != nil {
		t.Fatal(err)
	}
	for _, arr := range []*Array{paperArray(t, 4), mixed} {
		want := map[Strategy][]byte{}
		for _, s := range Strategies {
			plan, err := Partition(net, arr, s)
			if err != nil {
				t.Fatalf("%s, %v: %v", arr.Name, s, err)
			}
			want[s] = planBytes(t, plan)
		}

		sess := NewSession(0)
		for pass := 0; pass < 2; pass++ {
			cmp, err := sess.Compare(net, arr)
			if err != nil {
				t.Fatalf("%s, pass %d: %v", arr.Name, pass, err)
			}
			for _, s := range Strategies {
				if got := planBytes(t, cmp.Plans[s]); !bytes.Equal(got, want[s]) {
					t.Errorf("%s, pass %d: %v plan differs from serial Partition", arr.Name, pass, s)
				}
			}
			if sp := cmp.Speedup(StrategyAccPar); sp < 1 {
				t.Errorf("%s, pass %d: AccPar speedup %.3f < 1", arr.Name, pass, sp)
			}
		}
		if st := sess.CacheStats(); st.Hits == 0 {
			t.Errorf("%s: two Compare passes shared nothing: %+v", arr.Name, st)
		}
	}
}

// TestCompareLookupsAreOnePortfolio: Compare answers the baselines from
// the AccPar portfolio's own variants instead of searching them again, so
// on a fresh Session it makes exactly the cache lookups (hits plus
// misses) of one Partition with StrategyAccPar on another fresh Session.
func TestCompareLookupsAreOnePortfolio(t *testing.T) {
	mixed, err := ParseFleet("edge-npu:3,tpu-v2:2,tpu-v3:3")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"alexnet", "resnet18"} {
		net, err := BuildModel(model, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, arr := range []*Array{paperArray(t, 4), mixed} {
			cmp := NewSession(0)
			if _, err := cmp.Compare(net, arr); err != nil {
				t.Fatal(err)
			}
			one := NewSession(0)
			if _, err := one.Partition(net, arr, StrategyAccPar); err != nil {
				t.Fatal(err)
			}
			got, want := cmp.CacheStats(), one.CacheStats()
			if got.Hits+got.Misses != want.Hits+want.Misses {
				t.Errorf("%s on %s: Compare made %d lookups (%+v), one AccPar portfolio %d (%+v)",
					model, arr.Name, got.Hits+got.Misses, got, want.Hits+want.Misses, want)
			}
		}
	}
}

// TestSessionMixedWorkloadRace hammers one Session with concurrent
// Partition, Replan and TuneBatch calls (run under -race): one cache,
// many heterogeneous searches, every result matching its serial
// reference.
func TestSessionMixedWorkloadRace(t *testing.T) {
	net, err := BuildModel("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3ResilienceGroups(4)
	arr, err := HeterogeneousArray(groups...)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := ParseFaults("slowdown:0=2.0")
	if err != nil {
		t.Fatal(err)
	}
	sc := &FaultScenario{Seed: 1, Faults: fl}

	wantPlan, err := Partition(net, arr, StrategyAccPar)
	if err != nil {
		t.Fatal(err)
	}
	want := planBytes(t, wantPlan)
	wantReplan, err := ReplanAnalytic(net, groups, StrategyAccPar, sc)
	if err != nil {
		t.Fatal(err)
	}
	wantTune, err := TuneBatch("lenet", arr, 16, 64)
	if err != nil {
		t.Fatal(err)
	}

	sess := NewSession(0)
	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 9 {
		workers = 9
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch w % 3 {
			case 0:
				plan, err := sess.Partition(net, arr, StrategyAccPar)
				if err != nil {
					errs <- fmt.Errorf("worker %d Partition: %w", w, err)
					return
				}
				if !bytes.Equal(planBytes(t, plan), want) {
					errs <- fmt.Errorf("worker %d: plan differs from serial reference", w)
				}
			case 1:
				rep, err := sess.Replan(net, groups, StrategyAccPar, sc)
				if err != nil {
					errs <- fmt.Errorf("worker %d Replan: %w", w, err)
					return
				}
				if rep.Adopted != wantReplan.Adopted {
					errs <- fmt.Errorf("worker %d: adoption %v, reference %v", w, rep.Adopted, wantReplan.Adopted)
				}
			default:
				res, err := sess.TuneBatch("lenet", arr, 16, 64)
				if err != nil {
					errs <- fmt.Errorf("worker %d TuneBatch: %w", w, err)
					return
				}
				if res.Best.Batch != wantTune.Best.Batch {
					errs <- fmt.Errorf("worker %d: best batch %d, reference %d", w, res.Best.Batch, wantTune.Best.Batch)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := sess.CacheStats(); st.Hits == 0 {
		t.Errorf("mixed workload shared nothing: %+v", st)
	}
}

// TestSessionTuneDepthCached: TuneDepth through a session matches the
// uncached facade and reuses the cache on repetition.
func TestSessionTuneDepthCached(t *testing.T) {
	net, err := BuildModel("lenet", 32)
	if err != nil {
		t.Fatal(err)
	}
	arr := paperArray(t, 4)
	ref, err := TuneDepth(net, arr)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(0)
	for pass := 0; pass < 2; pass++ {
		res, err := sess.TuneDepth(net, arr)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		if res.Best.Levels != ref.Best.Levels {
			t.Errorf("pass %d: best depth %d, reference %d", pass, res.Best.Levels, ref.Best.Levels)
		}
	}
	if st := sess.CacheStats(); st.Hits == 0 {
		t.Errorf("repeated TuneDepth shared nothing: %+v", st)
	}
}

// TestSessionReplanBoundedByCapacity: a Session's replan and resilience
// runs search on its one plan cache, so the cache's capacity bounds
// everything the session retains. Under churn of distinct faults the
// cache holds at most its capacity after every call (and has evicted),
// and a repeated fault is served whole from the cache: the replan
// expands no subproblem. One-shot planning through the same session then
// hits the pristine plan the fault work left there.
func TestSessionReplanBoundedByCapacity(t *testing.T) {
	net, err := BuildModel("alexnet", 64)
	if err != nil {
		t.Fatal(err)
	}
	groups := v2v3ResilienceGroups(4)
	ctx := context.Background()
	fault := func(i int) FaultScenario {
		return FaultScenario{Seed: int64(i), Faults: []Fault{{Kind: FaultSlowdown, Group: i % 2, Factor: 1.1 + 0.05*float64(i)}}}
	}

	const capacity = 512
	sess := NewSession(capacity)
	for i := 0; i < 24; i++ {
		sc := fault(i)
		if _, err := sess.ReplanCtx(ctx, net, groups, StrategyAccPar, &sc); err != nil {
			t.Fatal(err)
		}
		if n := sess.Cache().Len(); n > capacity {
			t.Fatalf("replan %d: session cache holds %d entries, capacity %d", i, n, capacity)
		}
		if _, err := sess.ResilienceCtx(ctx, net, groups, StrategyAccPar, sc, SimConfig{}); err != nil {
			t.Fatal(err)
		}
		if n := sess.Cache().Len(); n > capacity {
			t.Fatalf("resilience %d: session cache holds %d entries, capacity %d", i, n, capacity)
		}
	}
	if st := sess.CacheStats(); st.Evictions == 0 {
		t.Errorf("24 distinct faults through a %d-entry session evicted nothing: %+v", capacity, st)
	}

	sc := fault(99)
	for pass := 0; pass < 2; pass++ {
		rep, err := sess.ReplanCtx(ctx, net, groups, StrategyAccPar, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 1 && rep.Stats.Expanded != 0 {
			t.Errorf("repeated fault expanded %d subproblems, want 0", rep.Stats.Expanded)
		}
		res, err := sess.ResilienceCtx(ctx, net, groups, StrategyAccPar, sc, SimConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if pass == 1 && res.Replan.Expanded != 0 {
			t.Errorf("repeated resilience run expanded %d subproblems, want 0", res.Replan.Expanded)
		}
	}

	arr, err := HeterogeneousArray(groups...)
	if err != nil {
		t.Fatal(err)
	}
	before := sess.CacheStats()
	if _, err := sess.Partition(net, arr, StrategyAccPar); err != nil {
		t.Fatal(err)
	}
	if st := sess.CacheStats(); st.Hits == before.Hits || st.Misses != before.Misses {
		t.Errorf("Session.Partition of the pristine array should hit the fault work's entries: before %+v, after %+v", before, st)
	}
}

// shrunkArray is 2×TPU-v2 + 2×TPU-v3 with every board's HBM divided by
// div.
func shrunkArray(t *testing.T, div int64) *Array {
	t.Helper()
	a, b := TPUv2(), TPUv3()
	a.HBMBytes /= div
	b.HBMBytes /= div
	arr, err := HeterogeneousArray(ArrayGroup{Spec: a, Count: 2}, ArrayGroup{Spec: b, Count: 2})
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// TestFacadePathsAgree: every way the facade turns an array into a plan
// agrees byte for byte with the core search on a freshly built tree —
// package-level PartitionWithOptions, Session.PartitionWithOptionsCtx on
// a cold session and again warm — across level budgets and memory
// modes, on a fleet of three board kinds, on shrunk boards where the
// memory bound binds at every budget and on boards where nothing fits
// (every path must fail alike).
func TestFacadePathsAgree(t *testing.T) {
	net, err := BuildModel("alexnet", 128)
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := ParseFleet("edge-npu:3,tpu-v2:2,tpu-v3:3")
	if err != nil {
		t.Fatal(err)
	}
	arrays := map[string]*Array{"mixed": mixed, "binding": shrunkArray(t, 512), "infeasible": shrunkArray(t, 1024)}
	ctx := context.Background()
	outcome := func(p *Plan, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return string(planBytes(t, p))
	}
	for name, arr := range arrays {
		for _, levels := range []int{1, 2, 64} {
			for _, mode := range []MemoryMode{MemoryOff, MemoryReject} {
				label := fmt.Sprintf("%s fleet, levels %d, memory mode %d", name, levels, mode)
				opt := core.AccPar()
				opt.Optimizer = OptimizerAdam
				opt.MemoryLimit = mode
				tree, err := hardware.BuildTree(arr, levels)
				if err != nil {
					t.Fatal(err)
				}
				want := outcome(core.PartitionCtx(ctx, net, tree, opt))
				if got := outcome(PartitionWithOptions(net, arr, opt, levels)); got != want {
					t.Errorf("%s: package-level PartitionWithOptions differs from the core search", label)
				}
				sess := NewSession(0)
				for _, pass := range []string{"cold", "warm"} {
					if got := outcome(sess.PartitionWithOptionsCtx(ctx, net, arr, opt, levels)); got != want {
						t.Errorf("%s: %s Session.PartitionWithOptionsCtx differs from the core search", label, pass)
					}
				}
			}
		}
	}
}
