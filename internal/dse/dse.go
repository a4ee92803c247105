// Package dse implements fleet design-space exploration (co-design
// autotuning): given one workload, enumerate candidate accelerator
// fleets — kind mixes, counts, hierarchy depths, link-bandwidth tiers —
// under a budget constraint, plan every candidate on one shared plan
// cache (core.SharedCache), and report the Pareto frontier
// over three minimized axes: modelled iteration makespan, fleet cost,
// and resilience (the post-fault makespan after degradation-aware
// replanning under a fixed fault scenario).
//
// The cache's content-addressed memos make a sweep much cheaper than
// independent per-fleet searches: they amortize structurally shared
// subproblems across candidates. Candidates whose level caps truncate to
// the same tree are evaluated once, fixed-type variants re-use whole
// per-kind sides between fleets, and each candidate's resilience replan
// (core.ReplanCtx on the same cache) starts from its
// pristine plan and re-solves only what its fault touched. Under a
// memory constraint, fleets whose aggregate HBM cannot hold the
// workload are discarded before any search. Every candidate that passes
// that filter is planned in full, and memo hits never change a decision,
// so the frontier is byte-identical across worker counts; only
// wall-clock changes.
package dse

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"accpar/internal/hardware"
)

// Kind is one procurable accelerator model with its unit price
// (arbitrary cost units per board; only ratios matter to the frontier).
type Kind struct {
	Name  string
	Spec  hardware.Spec
	Price float64
}

// Space is the candidate-fleet grid a sweep enumerates: the cartesian
// product of per-kind counts, hierarchy level caps and link-bandwidth
// scales, filtered by the budget.
type Space struct {
	// Kinds are the procurable accelerator models.
	Kinds []Kind
	// Counts are the per-kind board counts to try; 0 omits the kind.
	// The all-zero combination is skipped.
	Counts []int
	// Levels are the hierarchy level caps to try (hardware.BuildTree's
	// maxLevels; caps deeper than the fleet needs truncate to identical
	// trees).
	Levels []int
	// NetScales scale every link's bandwidth (and, mildly, the fleet
	// price: interconnect is modelled as 10% of board cost, so a tier
	// costs price·(0.9 + 0.1·scale)).
	NetScales []float64
	// Budget caps fleet cost; 0 means unlimited.
	Budget float64
	// MaxCandidates caps the enumeration after budget filtering,
	// keeping the deterministic grid order; 0 means unlimited.
	MaxCandidates int
}

// netCostFactor prices a link-bandwidth tier: interconnect is ~10% of
// board cost, scaled linearly with the tier.
func netCostFactor(scale float64) float64 { return 0.9 + 0.1*scale }

// Candidate is one enumerated fleet composition.
type Candidate struct {
	// Name is the deterministic composition label, e.g.
	// "tpu-v2x8+tpu-v3x16/L8/net2".
	Name string `json:"name"`
	// Kinds and CountsPerKind describe the composition (parallel
	// slices; zero counts omitted).
	Kinds         []string `json:"kinds"`
	CountsPerKind []int    `json:"counts"`
	// Levels is the hierarchy level cap.
	Levels int `json:"levels"`
	// NetScale is the link-bandwidth tier.
	NetScale float64 `json:"net_scale"`
	// Cost is the fleet price: Σ count·kind price·netCostFactor.
	Cost float64 `json:"cost"`

	specs []hardware.Spec
}

// Groups returns the candidate's group composition with netScale
// applied. Scaled specs are renamed ("tpu-v3/net2") because group
// bisection splits heterogeneous groups at spec-name boundaries and
// spec fingerprints feed the planner's content addressing — a scaled
// link tier is genuinely different hardware and must never alias the
// base spec.
func (c *Candidate) Groups() []hardware.GroupSpec {
	out := make([]hardware.GroupSpec, len(c.specs))
	for i, s := range c.specs {
		out[i] = hardware.GroupSpec{Spec: s, Count: c.CountsPerKind[i]}
	}
	return out
}

// Tree builds the candidate's hardware hierarchy.
func (c *Candidate) Tree() (*hardware.Tree, error) {
	arr, err := hardware.NewHeterogeneous(c.Groups()...)
	if err != nil {
		return nil, fmt.Errorf("dse: candidate %s: %w", c.Name, err)
	}
	return hardware.BuildTree(arr, c.Levels)
}

// scaleSpec applies one link-bandwidth tier to a spec.
func scaleSpec(s hardware.Spec, scale float64) hardware.Spec {
	if scale == 1 {
		return s
	}
	s.Name = s.Name + "/net" + formatScale(scale)
	s.NetBandwidth *= scale
	return s
}

// formatScale renders a tier deterministically and tersely (2, 0.5).
func formatScale(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Validate rejects malformed spaces.
func (s *Space) Validate() error {
	if len(s.Kinds) == 0 {
		return fmt.Errorf("dse: space needs at least one kind")
	}
	seen := map[string]bool{}
	for _, k := range s.Kinds {
		if k.Name == "" {
			return fmt.Errorf("dse: kind with empty name")
		}
		if seen[k.Name] {
			return fmt.Errorf("dse: duplicate kind %q", k.Name)
		}
		seen[k.Name] = true
		if !(k.Price >= 0) || math.IsInf(k.Price, 1) {
			return fmt.Errorf("dse: kind %q has invalid price %g (want a finite number ≥ 0)", k.Name, k.Price)
		}
	}
	if len(s.Counts) == 0 {
		return fmt.Errorf("dse: space needs at least one count")
	}
	for _, c := range s.Counts {
		if c < 0 {
			return fmt.Errorf("dse: negative count %d", c)
		}
	}
	if len(s.Levels) == 0 {
		return fmt.Errorf("dse: space needs at least one level cap")
	}
	for _, l := range s.Levels {
		if l < 1 {
			return fmt.Errorf("dse: level cap %d below 1", l)
		}
	}
	if len(s.NetScales) == 0 {
		return fmt.Errorf("dse: space needs at least one net scale")
	}
	for _, n := range s.NetScales {
		if !(n > 0) || math.IsInf(n, 1) {
			return fmt.Errorf("dse: net scale %g is not a positive finite number", n)
		}
	}
	if !(s.Budget >= 0) {
		return fmt.Errorf("dse: budget %g is not a non-negative number", s.Budget)
	}
	if s.MaxCandidates < 0 {
		return fmt.Errorf("dse: negative candidate cap %d", s.MaxCandidates)
	}
	return nil
}

// Enumerate lists the space's candidates in deterministic grid order:
// per-kind counts vary lexicographically (first kind slowest), then
// level caps, then net scales. Compositions over budget are dropped;
// the all-zero composition is skipped; MaxCandidates truncates the
// tail.
func (s *Space) Enumerate() ([]Candidate, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	var out []Candidate
	idx := make([]int, len(s.Kinds))
	for {
		var kinds []string
		var counts []int
		var base float64
		for ki, ci := range idx {
			n := s.Counts[ci]
			if n == 0 {
				continue
			}
			kinds = append(kinds, s.Kinds[ki].Name)
			counts = append(counts, n)
			base += float64(n) * s.Kinds[ki].Price
		}
		if len(kinds) > 0 {
			for _, levels := range s.Levels {
				for _, scale := range s.NetScales {
					cost := base * netCostFactor(scale)
					if s.Budget > 0 && cost > s.Budget {
						continue
					}
					c := Candidate{
						Kinds:         kinds,
						CountsPerKind: counts,
						Levels:        levels,
						NetScale:      scale,
						Cost:          cost,
					}
					var parts []string
					for ki, ci := range idx {
						if s.Counts[ci] == 0 {
							continue
						}
						parts = append(parts, fmt.Sprintf("%sx%d", s.Kinds[ki].Name, s.Counts[ci]))
						c.specs = append(c.specs, scaleSpec(s.Kinds[ki].Spec, scale))
					}
					c.Name = fmt.Sprintf("%s/L%d/net%s", strings.Join(parts, "+"), levels, formatScale(scale))
					out = append(out, c)
					if s.MaxCandidates > 0 && len(out) >= s.MaxCandidates {
						return out, nil
					}
				}
			}
		}
		// Advance the per-kind count odometer, first kind slowest.
		k := len(idx) - 1
		for ; k >= 0; k-- {
			idx[k]++
			if idx[k] < len(s.Counts) {
				break
			}
			idx[k] = 0
		}
		if k < 0 {
			return out, nil
		}
	}
}

// dominates reports whether point a (makespan, cost, resilience — all
// minimized) Pareto-dominates point b: no worse everywhere, strictly
// better somewhere.
func dominates(aMk, aCost, aRes, bMk, bCost, bRes float64) bool {
	return aMk <= bMk && aCost <= bCost && aRes <= bRes &&
		(aMk < bMk || aCost < bCost || aRes < bRes)
}

// sortResults orders results deterministically for frontier output:
// cheapest first, then fastest, then most resilient, then by name.
func sortResults(rs []Result) {
	sort.Slice(rs, func(i, j int) bool {
		a, b := rs[i], rs[j]
		if a.Cost != b.Cost {
			return a.Cost < b.Cost
		}
		if a.Makespan != b.Makespan {
			return a.Makespan < b.Makespan
		}
		if a.Resilience != b.Resilience {
			return a.Resilience < b.Resilience
		}
		return a.Name < b.Name
	})
}
