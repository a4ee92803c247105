package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/optimizer"
)

func hetero() [2]Machine {
	return [2]Machine{machineFor(hardware.TPUv2()), machineFor(hardware.TPUv3())}
}

// TestFaultSeededDeterminism: the same fault seed must reproduce the
// Result bit-for-bit; injection is a pure function of (seed, workload).
func TestFaultSeededDeterminism(t *testing.T) {
	net := netFor(t, "alexnet", 8)
	s := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.4}
	sc := &faults.Scenario{
		Seed: 1234,
		Faults: []faults.Fault{
			{Kind: faults.KindTransient, Group: 0, Rate: 0.2, Backoff: 1e-5},
			{Kind: faults.KindSlowdown, Group: 1, Factor: 1.5},
			{Kind: faults.KindGroupLoss, Group: 1, Fraction: 0.25},
		},
		CheckpointOverhead: 1e-3,
	}
	r1, err := Simulate(s, hetero(), Config{Faults: sc})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Simulate(s, hetero(), Config{Faults: sc})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("same seed produced different results:\n%+v\n%+v", r1, r2)
	}
	if r1.Retries[0] == 0 {
		t.Error("rate-0.2 transient fault never fired on alexnet's task graph")
	}
	if r1.Retries[1] != 0 {
		t.Error("transient fault fired on the unafflicted group")
	}
	if r1.RestartOverhead < sc.CheckpointOverhead {
		t.Errorf("restart overhead %g below fixed checkpoint cost %g", r1.RestartOverhead, sc.CheckpointOverhead)
	}

	r3, err := Simulate(s, hetero(), Config{Faults: &faults.Scenario{Seed: 99, Faults: sc.Faults, CheckpointOverhead: sc.CheckpointOverhead}})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Retries == r1.Retries && r3.RestartOverhead == r1.RestartOverhead {
		t.Error("different seeds produced identical injection outcomes (stream looks constant)")
	}
}

// TestSlowdownBoundProperty: for any compute-slowdown factor f ≥ 1 on
// either group, the faulted makespan with the stale split obeys
// T0 ≤ T_stale ≤ f × T0 — degrading one resource by f can stretch every
// task by at most f, and the list schedule preserves that bound.
func TestSlowdownBoundProperty(t *testing.T) {
	net := netFor(t, "lenet", 16)
	s := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.3}
	base, err := Simulate(s, hetero(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		f := 1 + 9*rng.Float64()
		group := rng.Intn(2)
		sc := &faults.Scenario{Faults: []faults.Fault{{Kind: faults.KindSlowdown, Group: group, Factor: f}}}
		res, err := Simulate(s, hetero(), Config{Faults: sc})
		if err != nil {
			t.Fatal(err)
		}
		const eps = 1e-9
		if res.Time < base.Time*(1-eps) {
			t.Errorf("f=%g group=%d: faulted time %g below fault-free %g", f, group, res.Time, base.Time)
		}
		if res.Time > f*base.Time*(1+eps) {
			t.Errorf("f=%g group=%d: faulted time %g above f×fault-free %g", f, group, res.Time, f*base.Time)
		}
	}
}

// TestBandwidthFaultsSlowTheRun: degrading HBM or network bandwidth can
// only increase the makespan.
func TestBandwidthFaultsSlowTheRun(t *testing.T) {
	net := netFor(t, "lenet", 16)
	s := Split{Net: net, Types: allTypes(net, cost.TypeII), Alpha: 0.5}
	base, err := Simulate(s, hetero(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []faults.Kind{faults.KindMemBW, faults.KindNetBW} {
		sc := &faults.Scenario{Faults: []faults.Fault{{Kind: kind, Group: 0, Factor: 8}}}
		res, err := Simulate(s, hetero(), Config{Faults: sc})
		if err != nil {
			t.Fatal(err)
		}
		if res.Time < base.Time {
			t.Errorf("%v fault sped the run up: %g < %g", kind, res.Time, base.Time)
		}
	}
}

// TestTransientRetriesAccountLostTime: retries cost wall-clock time and
// are booked into LostTime.
func TestTransientRetriesAccountLostTime(t *testing.T) {
	net := netFor(t, "lenet", 16)
	s := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.5}
	base, err := Simulate(s, twoV3(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := &faults.Scenario{Seed: 5, Faults: []faults.Fault{{Kind: faults.KindTransient, Group: 1, Rate: 0.5, Backoff: 1e-6}}}
	res, err := Simulate(s, twoV3(), Config{Faults: sc})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retries[1] == 0 {
		t.Fatal("rate-0.5 transient fault never fired")
	}
	if res.LostTime[1] <= 0 {
		t.Error("retries booked no lost time")
	}
	if res.Time <= base.Time {
		t.Errorf("faulted run not slower: %g vs %g", res.Time, base.Time)
	}
	// FLOPs are useful work only — re-executions must not inflate them.
	if res.FLOPs != base.FLOPs {
		t.Errorf("retries changed useful FLOPs: %v vs %v", res.FLOPs, base.FLOPs)
	}
}

// TestGroupLossChargesRestart: a permanent loss charges the checkpoint
// overhead plus lost progress, and shrinks the survivors' memory.
func TestGroupLossChargesRestart(t *testing.T) {
	net := netFor(t, "lenet", 16)
	s := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.5}
	base, err := Simulate(s, twoV3(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	sc := &faults.Scenario{Seed: 3, Faults: []faults.Fault{{Kind: faults.KindGroupLoss, Group: 0, Fraction: 0.5}}, CheckpointOverhead: 0.125}
	res, err := Simulate(s, twoV3(), Config{Faults: sc})
	if err != nil {
		t.Fatal(err)
	}
	if res.RestartOverhead < 0.125 {
		t.Errorf("restart overhead %g below checkpoint cost", res.RestartOverhead)
	}
	if res.Time <= base.Time {
		t.Errorf("group loss did not slow the run: %g vs %g", res.Time, base.Time)
	}
	if res.PeakMemBytes[0] <= 0 {
		t.Error("residency must stay positive")
	}
}

// TestConfigValidate: unknown optimizer kinds and out-of-range fault
// groups are rejected before any scheduling happens.
func TestConfigValidate(t *testing.T) {
	net := netFor(t, "lenet", 16)
	s := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.5}
	if _, err := Simulate(s, twoV3(), Config{Optimizer: optimizer.Kind(42)}); err == nil {
		t.Error("unknown optimizer kind must be rejected")
	}
	bad := &faults.Scenario{Faults: []faults.Fault{{Kind: faults.KindSlowdown, Group: 2, Factor: 2}}}
	if _, err := Simulate(s, twoV3(), Config{Faults: bad}); err == nil {
		t.Error("fault on group 2 must be rejected by the two-group simulator")
	}
	invalid := &faults.Scenario{Faults: []faults.Fault{{Kind: faults.KindSlowdown, Group: 0, Factor: 0.5}}}
	if _, err := Simulate(s, twoV3(), Config{Faults: invalid}); err == nil {
		t.Error("invalid fault must be rejected")
	}
}

// TestEntryPathsValidateMachines: every builder entry path rejects
// degenerate machines — including NaN resources that slip through naive
// non-positive checks.
func TestEntryPathsValidateMachines(t *testing.T) {
	net := netFor(t, "lenet", 16)
	s := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.5}
	bad := twoV3()
	bad[0].Compute = math.NaN()
	if _, err := Simulate(s, bad, Config{}); err == nil {
		t.Error("Simulate accepted a NaN machine")
	}
	if _, err := sortedTaskNames(s, bad); err == nil {
		t.Error("sortedTaskNames accepted a NaN machine")
	}
	inf := twoV3()
	inf[1].NetBW = math.Inf(1)
	if _, err := Simulate(s, inf, Config{}); err == nil {
		t.Error("Simulate accepted an Inf machine")
	}
}
