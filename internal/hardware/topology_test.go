package hardware

import (
	"math"
	"strings"
	"testing"
)

// boards returns n copies of spec.
func boards(spec Spec, n int) []Spec {
	accel := make([]Spec, n)
	for i := range accel {
		accel[i] = spec
	}
	return accel
}

func groupOf(spec Spec, n int) *Group { return NewGroup(boards(spec, n)...) }

// TestTopologyNamesAndParse: every supported topology has its own name
// (the label of the topology sweep's rows), never the fallback
// rendering, so a name picks exactly one topology out of Topologies.
func TestTopologyNamesAndParse(t *testing.T) {
	seen := map[string]bool{}
	for _, topo := range Topologies {
		name := topo.String()
		if seen[name] || strings.HasPrefix(name, "Topology(") {
			t.Errorf("topology %d has name %q", int(topo), name)
		}
		seen[name] = true
	}
}

func TestFullBisectionMatchesAggregate(t *testing.T) {
	g := groupOf(TPUv3(), 16)
	if got := FullBisection.BisectionBandwidth(g); got != g.NetBandwidth() {
		t.Errorf("full bisection = %g, want aggregate %g", got, g.NetBandwidth())
	}
}

func TestRingBisectionScaleIndependent(t *testing.T) {
	small := groupOf(TPUv3(), 4)
	large := groupOf(TPUv3(), 64)
	bs := Ring.BisectionBandwidth(small)
	bl := Ring.BisectionBandwidth(large)
	if bs != bl {
		t.Errorf("ring bisection must not scale with size: %g vs %g", bs, bl)
	}
	if bs != 2*TPUv3().NetBandwidth {
		t.Errorf("ring bisection = %g, want 2 links", bs)
	}
	// Mixed group: the slowest link bounds the ring.
	mixed := NewGroup(TPUv2(), TPUv3(), TPUv3(), TPUv3())
	if got := Ring.BisectionBandwidth(mixed); got != 2*TPUv2().NetBandwidth {
		t.Errorf("mixed ring = %g, want 2× slowest link", got)
	}
}

func TestTorusBisectionScalesWithSqrt(t *testing.T) {
	g16 := groupOf(TPUv3(), 16)
	g64 := groupOf(TPUv3(), 64)
	b16 := Torus2D.BisectionBandwidth(g16)
	b64 := Torus2D.BisectionBandwidth(g64)
	// 2·√16 = 8 links vs 2·√64 = 16 links → ratio 2.
	if math.Abs(b64/b16-2) > 1e-9 {
		t.Errorf("torus scaling = %g, want 2", b64/b16)
	}
	// Torus never exceeds the full aggregate.
	if b64 > g64.NetBandwidth() {
		t.Error("torus bisection above aggregate")
	}
}

func TestOversubscribedHalvesBandwidth(t *testing.T) {
	g := groupOf(TPUv3(), 8)
	if got := Oversubscribed2to1.BisectionBandwidth(g); got != g.NetBandwidth()/2 {
		t.Errorf("2:1 = %g, want half of %g", got, g.NetBandwidth())
	}
}

func TestTopologyOrderingForLargeGroups(t *testing.T) {
	g := groupOf(TPUv3(), 64)
	full := FullBisection.BisectionBandwidth(g)
	over := Oversubscribed2to1.BisectionBandwidth(g)
	torus := Torus2D.BisectionBandwidth(g)
	ring := Ring.BisectionBandwidth(g)
	if !(full > over && over > torus && torus > ring) {
		t.Errorf("expected full > 2:1 > torus > ring for 64 members, got %g %g %g %g",
			full, over, torus, ring)
	}
}

func TestSingletonGroups(t *testing.T) {
	g := groupOf(TPUv2(), 1)
	for _, topo := range Topologies {
		if got := topo.BisectionBandwidth(g); got < TPUv2().NetBandwidth {
			t.Errorf("%v singleton = %g, want at least one link", topo, got)
		}
	}
}
