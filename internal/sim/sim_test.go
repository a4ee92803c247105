package sim

import (
	"math"
	"slices"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

func machineFor(spec hardware.Spec) Machine {
	return Machine{Name: spec.Name, Compute: spec.FLOPS, MemBW: spec.MemBandwidth, NetBW: spec.NetBandwidth, HBMBytes: spec.HBMBytes}
}

func netFor(t *testing.T, model string, batch int) *dnn.Network {
	t.Helper()
	net, err := models.BuildNetwork(model, batch)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func allTypes(net *dnn.Network, t cost.Type) []cost.Type {
	out := make([]cost.Type, len(net.Units()))
	for i := range out {
		out[i] = t
	}
	return out
}

func twoV3() [2]Machine {
	return [2]Machine{machineFor(hardware.TPUv3()), machineFor(hardware.TPUv3())}
}

func TestSimulateBasic(t *testing.T) {
	net := netFor(t, "lenet", 16)
	s := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.5}
	res, err := Simulate(s, twoV3(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Time > 0) || math.IsNaN(res.Time) {
		t.Fatalf("time = %g", res.Time)
	}
	if res.Tasks == 0 {
		t.Fatal("no tasks scheduled")
	}
	// Symmetric split on identical machines: both sides do the same work.
	if math.Abs(res.FLOPs[0]-res.FLOPs[1]) > 1e-6*(res.FLOPs[0]+1) {
		t.Errorf("FLOPs unbalanced at α=0.5: %g vs %g", res.FLOPs[0], res.FLOPs[1])
	}
	if res.ComputeUtil[0] <= 0 || res.ComputeUtil[0] > 1 {
		t.Errorf("utilization = %g", res.ComputeUtil[0])
	}
}

// TestMakespanAtLeastCriticalWork: the makespan is never below either
// machine's total busy time and never below the pure compute bound.
func TestMakespanAtLeastCriticalWork(t *testing.T) {
	net := netFor(t, "alexnet", 8)
	for _, ty := range cost.Types {
		s := Split{Net: net, Types: allTypes(net, ty), Alpha: 0.5}
		res, err := Simulate(s, twoV3(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		for m := 0; m < 2; m++ {
			if res.Time < res.ComputeBusy[m]-1e-12 {
				t.Errorf("%v: makespan %g below machine %d busy %g", ty, res.Time, m, res.ComputeBusy[m])
			}
		}
	}
}

// TestFLOPConservationAcrossTypes: total arithmetic is the same whatever
// the partition type (types move work, they don't change it), up to the
// extra psum-combine additions.
func TestFLOPConservationAcrossTypes(t *testing.T) {
	net := netFor(t, "lenet", 16)
	var base float64
	for i, ty := range cost.Types {
		s := Split{Net: net, Types: allTypes(net, ty), Alpha: 0.5}
		res, err := Simulate(s, twoV3(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		total := res.FLOPs[0] + res.FLOPs[1]
		if i == 0 {
			base = total
			continue
		}
		if rel := math.Abs(total-base) / base; rel > 0.01 {
			t.Errorf("%v: total FLOPs %g deviates %g%% from Type-I's %g", ty, total, 100*rel, base)
		}
	}
}

// TestRemoteBytesMatchTable4: under a uniform type assignment with no
// inter-layer conversions, each side's traffic is exactly the sum of the
// per-layer Table 4 amounts.
func TestRemoteBytesMatchTable4(t *testing.T) {
	net := netFor(t, "alexnet", 8)
	s := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.5}
	res, err := Simulate(s, twoV3(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, u := range net.Units() {
		if u.Virtual {
			continue
		}
		want += float64(cost.IntraCommElements(cost.TypeI, u.Dims)) * 2 // bytes
	}
	for m := 0; m < 2; m++ {
		if math.Abs(res.RemoteBytes[m]-want) > 1e-6*want {
			t.Errorf("machine %d remote bytes = %g, want %g", m, res.RemoteBytes[m], want)
		}
	}
}

// TestOverlapNeverSlower: allowing communication/computation overlap can
// only reduce the makespan.
func TestOverlapNeverSlower(t *testing.T) {
	net := netFor(t, "vgg11", 8)
	for _, ty := range cost.Types {
		s := Split{Net: net, Types: allTypes(net, ty), Alpha: 0.5}
		serial, err := Simulate(s, twoV3(), Config{})
		if err != nil {
			t.Fatal(err)
		}
		overlap, err := Simulate(s, twoV3(), Config{OverlapComm: true})
		if err != nil {
			t.Fatal(err)
		}
		if overlap.Time > serial.Time*(1+1e-9) {
			t.Errorf("%v: overlap %g slower than serial %g", ty, overlap.Time, serial.Time)
		}
	}
}

// TestHeterogeneousBalancedAlphaFaster: on a v2+v3 pair, the compute-share
// ratio must beat the equal split for a compute-dominated assignment.
func TestHeterogeneousBalancedAlphaFaster(t *testing.T) {
	net := netFor(t, "resnet50", 4)
	machines := [2]Machine{machineFor(hardware.TPUv2()), machineFor(hardware.TPUv3())}
	types := allTypes(net, cost.TypeI)
	equal, err := Simulate(Split{Net: net, Types: types, Alpha: 0.5}, machines, Config{})
	if err != nil {
		t.Fatal(err)
	}
	balanced, err := Simulate(Split{Net: net, Types: types, Alpha: 0.3}, machines, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if balanced.Time >= equal.Time {
		t.Errorf("balanced α=0.3 (%g) not faster than equal split (%g)", balanced.Time, equal.Time)
	}
}

// TestEveryModelBuilds: every built-in model's graph, under every
// uniform type, is built in an order the scheduler accepts — each task's
// dependencies added before it (des.Graph.Add rejects the rest).
func TestEveryModelBuilds(t *testing.T) {
	for _, model := range models.Names() {
		net := netFor(t, model, 4)
		for _, ty := range cost.Types {
			if _, err := sortedTaskNames(Split{Net: net, Types: allTypes(net, ty), Alpha: 0.5}, twoV3()); err != nil {
				t.Errorf("%s %v: %v", model, ty, err)
			}
		}
	}
}

// TestMultiPathSimulation: ResNet networks with identity shortcuts
// simulate without dependency errors.
func TestMultiPathSimulation(t *testing.T) {
	net := netFor(t, "resnet18", 4)
	for _, ty := range cost.Types {
		s := Split{Net: net, Types: allTypes(net, ty), Alpha: 0.5}
		res, err := Simulate(s, twoV3(), Config{})
		if err != nil {
			t.Fatalf("%v: %v", ty, err)
		}
		if !(res.Time > 0) {
			t.Errorf("%v: time = %g", ty, res.Time)
		}
	}
}

// TestMixedAssignmentConversions: a mixed I/II assignment induces
// inter-layer conversion transfers (more network traffic than the pure
// intra-layer sum).
func TestMixedAssignmentConversions(t *testing.T) {
	net := netFor(t, "alexnet", 8)
	types := allTypes(net, cost.TypeI)
	units := net.Units()
	for i, u := range units {
		if u.Kind == dnn.KindFC {
			types[i] = cost.TypeII
		}
	}
	res, err := Simulate(Split{Net: net, Types: types, Alpha: 0.5}, twoV3(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	var intraOnly float64
	for i, u := range units {
		if u.Virtual {
			continue
		}
		intraOnly += float64(cost.IntraCommElements(types[i], u.Dims)) * 2
	}
	if res.RemoteBytes[0] <= intraOnly {
		t.Errorf("mixed assignment should add conversion traffic: %g <= %g", res.RemoteBytes[0], intraOnly)
	}
}

// TestMemoryResidency: ImageNet-scale VGG-16 at batch 512 fits two TPU-v3
// under Type-II/III sharding but the check must at least produce sane
// numbers.
func TestMemoryResidency(t *testing.T) {
	net := netFor(t, "vgg16", 64)
	res, err := Simulate(Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.5}, twoV3(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		if res.PeakMemBytes[m] <= 0 {
			t.Errorf("machine %d peak mem = %d", m, res.PeakMemBytes[m])
		}
	}
	// Type-I replicates all kernels: residency must cover at least the
	// full model.
	minBytes := net.ParameterCount() * 2
	if res.PeakMemBytes[0] < minBytes {
		t.Errorf("peak mem %d below replicated model size %d", res.PeakMemBytes[0], minBytes)
	}
}

// TestSimulateValidation: malformed inputs are rejected.
func TestSimulateValidation(t *testing.T) {
	net := netFor(t, "lenet", 8)
	good := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.5}
	if _, err := Simulate(Split{Net: net, Types: good.Types[:2], Alpha: 0.5}, twoV3(), Config{}); err == nil {
		t.Error("short types slice must be rejected")
	}
	if _, err := Simulate(Split{Net: net, Types: good.Types, Alpha: 0}, twoV3(), Config{}); err == nil {
		t.Error("alpha=0 must be rejected")
	}
	bad := twoV3()
	bad[0].Compute = 0
	if _, err := Simulate(good, bad, Config{}); err == nil {
		t.Error("zero-compute machine must be rejected")
	}
}

// TestDeterministicSchedule: two runs agree exactly.
func TestDeterministicSchedule(t *testing.T) {
	net := netFor(t, "resnet18", 8)
	s := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.5}
	a, err := Simulate(s, twoV3(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(s, twoV3(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time || a.Tasks != b.Tasks {
		t.Errorf("nondeterministic simulation: %+v vs %+v", a, b)
	}
	n1, err := sortedTaskNames(s, twoV3())
	if err != nil {
		t.Fatal(err)
	}
	n2, err := sortedTaskNames(s, twoV3())
	if err != nil {
		t.Fatal(err)
	}
	if len(n1) != len(n2) {
		t.Fatal("task sets differ")
	}
	for i := range n1 {
		if n1[i] != n2[i] {
			t.Fatalf("task %d differs: %s vs %s", i, n1[i], n2[i])
		}
	}
}

// TestFasterMachinesFinishSooner: doubling compute strictly reduces the
// makespan for a compute-bound workload.
func TestFasterMachinesFinishSooner(t *testing.T) {
	net := netFor(t, "resnet50", 8)
	s := Split{Net: net, Types: allTypes(net, cost.TypeI), Alpha: 0.5}
	slow := twoV3()
	fast := twoV3()
	fast[0].Compute *= 4
	fast[1].Compute *= 4
	rs, err := Simulate(s, slow, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rf, err := Simulate(s, fast, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rf.Time >= rs.Time {
		t.Errorf("4× compute not faster: %g vs %g", rf.Time, rs.Time)
	}
}

// sortedTaskNames builds the graph and returns its task names, sorted.
func sortedTaskNames(s Split, machines [2]Machine) ([]string, error) {
	if err := validateSplit(s, machines); err != nil {
		return nil, err
	}
	b := newBuilder(s, machines)
	if err := b.build(Config{}, nil); err != nil {
		return nil, err
	}
	names := make([]string, len(b.tasks))
	for i := range b.tasks {
		names[i] = b.taskName(&b.tasks[i])
	}
	slices.Sort(names)
	return names, nil
}
