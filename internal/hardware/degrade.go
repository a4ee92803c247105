package hardware

import (
	"fmt"
	"math"
)

// Degradation describes the post-fault state of one accelerator group:
// each rate divided by a divisor ≥ 1, plus a fraction of the group's
// members permanently lost. The zero value is not pristine (divisors
// must be ≥ 1): the identity is {Compute: 1, MemBW: 1, NetBW: 1}.
type Degradation struct {
	// Compute divides the group's FLOPS (1 = pristine, 2 = half speed).
	Compute float64
	// MemBW divides the HBM bandwidth.
	MemBW float64
	// NetBW divides the network bandwidth.
	NetBW float64
	// LostFraction is the share of the group's accelerators permanently
	// lost, in [0, 1). At least one accelerator always survives.
	LostFraction float64
}

// Pristine reports whether the transform changes nothing.
func (d Degradation) Pristine() bool {
	return d.Compute == 1 && d.MemBW == 1 && d.NetBW == 1 && d.LostFraction == 0
}

// Validate rejects divisors below 1, non-finite fields and lost
// fractions outside [0, 1).
func (d Degradation) Validate() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"compute", d.Compute}, {"membw", d.MemBW}, {"netbw", d.NetBW}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 1 {
			return fmt.Errorf("hardware: degradation %s divisor %g not a finite value ≥ 1", f.name, f.v)
		}
	}
	if math.IsNaN(d.LostFraction) || d.LostFraction < 0 || d.LostFraction >= 1 {
		return fmt.Errorf("hardware: degradation lost fraction %g outside [0,1)", d.LostFraction)
	}
	return nil
}

// Degrade returns the post-fault spec: each rate divided by its divisor.
// A degraded spec gets a distinct name so a degraded group never merges
// with a pristine group of the same model in Bisect's spec-name split.
func (s Spec) Degrade(d Degradation) (Spec, error) {
	if err := d.Validate(); err != nil {
		return Spec{}, err
	}
	if d.Pristine() {
		return s, nil
	}
	out := s
	out.FLOPS /= d.Compute
	out.MemBandwidth /= d.MemBW
	out.NetBandwidth /= d.NetBW
	out.Name = fmt.Sprintf("%s~deg(c%g,m%g,n%g)", s.Name, d.Compute, d.MemBW, d.NetBW)
	if err := out.Validate(); err != nil {
		return Spec{}, fmt.Errorf("hardware: degrading %q produced an invalid spec: %w", s.Name, err)
	}
	return out, nil
}

// DegradeGroups applies per-group degradations (keyed by group index) and
// returns the post-fault group list the planner replans against. Rate
// divisors transform the group's spec; a LostFraction removes
// round(fraction × count) accelerators, always keeping at least one
// survivor. Groups without an entry pass through unchanged.
func DegradeGroups(groups []GroupSpec, degs map[int]Degradation) ([]GroupSpec, error) {
	out := make([]GroupSpec, len(groups))
	for i, g := range groups {
		d, ok := degs[i]
		if !ok {
			out[i] = g
			continue
		}
		spec, err := g.Spec.Degrade(d)
		if err != nil {
			return nil, err
		}
		count := g.Count
		if d.LostFraction > 0 {
			lost := int(math.Round(d.LostFraction * float64(count)))
			if lost >= count {
				lost = count - 1
			}
			count -= lost
		}
		out[i] = GroupSpec{Spec: spec, Count: count}
	}
	for g := range degs {
		if g < 0 || g >= len(groups) {
			return nil, fmt.Errorf("hardware: degradation targets group %d of %d", g, len(groups))
		}
	}
	return out, nil
}
