package hardware

import (
	"fmt"
	"math"
)

// Topology models how an accelerator group's interconnect scales: the
// effective bandwidth available for a transfer between the two halves of a
// split is the group's bisection bandwidth, which depends on how the links
// are wired. The paper specifies only per-board data rates (8/16 Gb/s,
// Section 6.1); the default FullBisection topology matches the
// interpretation used throughout the reproduction — every member
// contributes its link to the cross-split transfer. The alternative
// topologies let users study interconnect sensitivity.
type Topology int

const (
	// FullBisection: all member links cross the split (non-blocking
	// fabric). Bisection bandwidth = Σ member rates.
	FullBisection Topology = iota
	// Ring: members form a ring; exactly two links cross any bisection.
	// Bisection bandwidth = 2 × min member rate (scale-independent).
	Ring
	// Torus2D: members form a √n×√n torus; 2·√n links cross the best
	// bisection.
	Torus2D
	// Oversubscribed2to1: a 2:1 oversubscribed tree — half the member
	// links cross the split.
	Oversubscribed2to1
)

// Topologies lists the supported interconnects.
var Topologies = []Topology{FullBisection, Ring, Torus2D, Oversubscribed2to1}

// String names the topology.
func (t Topology) String() string {
	switch t {
	case FullBisection:
		return "full-bisection"
	case Ring:
		return "ring"
	case Torus2D:
		return "torus-2d"
	case Oversubscribed2to1:
		return "oversubscribed-2:1"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// BisectionBandwidth returns the effective cross-split byte rate of a
// group wired with this topology.
func (t Topology) BisectionBandwidth(g *Group) float64 {
	if g.Size() == 0 {
		return 0
	}
	full := g.NetBandwidth()
	perLink := full / float64(g.Size())
	switch t {
	case FullBisection:
		return full
	case Ring:
		if g.Size() == 1 {
			return perLink
		}
		slowest := math.Inf(1)
		for i := range g.runs {
			slowest = min(slowest, g.runs[i].spec.NetBandwidth)
		}
		return 2 * slowest
	case Torus2D:
		side := math.Sqrt(float64(g.Size()))
		links := 2 * side
		if links > float64(g.Size()) {
			links = float64(g.Size())
		}
		return links * perLink
	case Oversubscribed2to1:
		bw := full / 2
		if bw < perLink {
			bw = perLink
		}
		return bw
	default:
		panic(fmt.Sprintf("hardware: invalid topology %d", int(t)))
	}
}
