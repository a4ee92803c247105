package core

import (
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/tensor"
	"accpar/internal/workload"
)

// refUnitCost is the per-pair unit cost: the DP cost of executing unit u
// under type t, computation (Eq. 8) plus intra-layer communication
// (Table 4), combined per the objective, with the memory penalty when one
// is set. It computes both compute shares for every type; unitRow, which
// computes them once per unit, must match it bit for bit.
func refUnitCost(c *levelCtx, u int, t cost.Type) float64 {
	if c.consts[u].virtual {
		return 0
	}
	flops := c.flopsU[u]
	intraBytes := c.intraU[u][t] * tensor.BytesPerElement
	var v float64
	if c.opt.Objective == ObjectiveCommOnly {
		v = 2 * intraBytes
	} else {
		ei := c.alpha*flops/c.sideI.Compute + intraBytes/c.sideI.Net
		ej := c.beta()*flops/c.sideJ.Compute + intraBytes/c.sideJ.Net
		v = math.Max(ei, ej)
	}
	if c.memLambda > 0 {
		v += c.memLambda * c.memPressure(u, t)
	}
	return v
}

// refEdgeCost is the per-pair edge cost: the DP cost of the transition
// from unit p (type tt) to unit n (type t), the Table 5 conversion over
// the boundary tensor combined per the objective, evaluated for that one
// pair; edgeRow must match it bit for bit.
func refEdgeCost(c *levelCtx, p, n int, tt, t cost.Type) float64 {
	boundary := float64(c.boundary(p, n))
	k := c.pat()[tt][t]
	if c.opt.Objective == ObjectiveCommOnly {
		return (patElems(k, boundary, c.alpha, c.beta()) + patElems(k, boundary, c.beta(), c.alpha)) * tensor.BytesPerElement
	}
	ei := patElems(k, boundary, c.alpha, c.beta()) * tensor.BytesPerElement / c.sideI.Net
	ej := patElems(k, boundary, c.beta(), c.alpha) * tensor.BytesPerElement / c.sideJ.Net
	return math.Max(ei, ej)
}

// refPathDP is the original Section 5.2 path solver: the whole path DP
// re-run for one (entry type tt, merge type t) pair. It is the reference
// runDP's per-entry-type tables are checked against.
func refPathDP(c *levelCtx, prev int, path []int, merge int, tt, t cost.Type) (float64, []cost.Type) {
	if len(path) == 0 {
		return refEdgeCost(c, prev, merge, tt, t), nil
	}
	type cell struct {
		cost float64
		back int
	}
	table := make([][]cell, len(path))
	for k := range table {
		table[k] = make([]cell, len(cost.Types))
		for i := range table[k] {
			table[k][i] = cell{cost: math.Inf(1), back: -1}
		}
	}
	for _, t0 := range c.allowedTypes(path[0]) {
		table[0][t0] = cell{cost: refEdgeCost(c, prev, path[0], tt, t0) + refUnitCost(c, path[0], t0)}
	}
	for k := 1; k < len(path); k++ {
		for _, tk := range c.allowedTypes(path[k]) {
			base := refUnitCost(c, path[k], tk)
			for _, tp := range c.allowedTypes(path[k-1]) {
				prevCost := table[k-1][tp].cost
				if math.IsInf(prevCost, 1) {
					continue
				}
				cand := prevCost + refEdgeCost(c, path[k-1], path[k], tp, tk) + base
				if cand < table[k][tk].cost {
					table[k][tk] = cell{cost: cand, back: int(tp)}
				}
			}
		}
	}
	best := math.Inf(1)
	bestLast := -1
	last := len(path) - 1
	for _, tl := range c.allowedTypes(path[last]) {
		if math.IsInf(table[last][tl].cost, 1) {
			continue
		}
		cand := table[last][tl].cost + refEdgeCost(c, path[last], merge, tl, t)
		if cand < best {
			best = cand
			bestLast = int(tl)
		}
	}
	if bestLast < 0 {
		return math.Inf(1), nil
	}
	types := make([]cost.Type, len(path))
	cur := bestLast
	for k := last; k >= 0; k-- {
		types[k] = cost.Type(cur)
		cur = table[k][cur].back
	}
	return best, types
}

// refRunDP is the original Eq. 9 loop that calls refPathDP once per
// (merge type, entry type) pair of every parallel region.
func refRunDP(c *levelCtx) ([]cost.Type, float64, error) {
	n := len(c.units)
	if n == 0 {
		return nil, 0, errNoUnits
	}
	const K = 3
	inf := math.Inf(1)
	type rec struct {
		unit      int
		back      [K]int
		pathTypes [K][][]cost.Type
		paths     [][]int
	}
	var chain []rec
	cur := [K]float64{inf, inf, inf}
	first := c.planSegs[0].unit
	for _, t := range c.allowedTypes(first) {
		cur[t] = refUnitCost(c, first, t)
	}
	chain = append(chain, rec{unit: first, back: [K]int{-1, -1, -1}})
	i := 1
	for i < len(c.planSegs) {
		seg := c.planSegs[i]
		prevUnit := chain[len(chain)-1].unit
		next := [K]float64{inf, inf, inf}
		r := rec{back: [K]int{-1, -1, -1}}
		if seg.unit >= 0 {
			v := seg.unit
			r.unit = v
			for _, t := range c.allowedTypes(v) {
				base := refUnitCost(c, v, t)
				for _, tt := range c.allowedTypes(prevUnit) {
					if math.IsInf(cur[tt], 1) {
						continue
					}
					cand := cur[tt] + refEdgeCost(c, prevUnit, v, tt, t) + base
					if cand < next[t] {
						next[t] = cand
						r.back[t] = int(tt)
					}
				}
			}
			i++
		} else {
			if i+1 >= len(c.planSegs) || c.planSegs[i+1].unit < 0 {
				return nil, 0, errNoMerge
			}
			m := c.planSegs[i+1].unit
			r.unit = m
			r.paths = seg.paths
			for _, t := range c.allowedTypes(m) {
				base := refUnitCost(c, m, t)
				for _, tt := range c.allowedTypes(prevUnit) {
					if math.IsInf(cur[tt], 1) {
						continue
					}
					sum := 0.0
					inner := make([][]cost.Type, len(seg.paths))
					feasible := true
					for k, path := range seg.paths {
						pc, ptypes := refPathDP(c, prevUnit, path, m, tt, t)
						if math.IsInf(pc, 1) {
							feasible = false
							break
						}
						sum += pc
						inner[k] = ptypes
					}
					if !feasible {
						continue
					}
					cand := cur[tt] + sum + base
					if cand < next[t] {
						next[t] = cand
						r.back[t] = int(tt)
						r.pathTypes[t] = inner
					}
				}
			}
			i += 2
		}
		cur = next
		chain = append(chain, r)
	}
	bestT, bestCost := -1, inf
	lastUnit := chain[len(chain)-1].unit
	for _, t := range c.allowedTypes(lastUnit) {
		if cur[t] < bestCost {
			bestCost = cur[t]
			bestT = int(t)
		}
	}
	if bestT < 0 {
		return nil, 0, errInfeasible
	}
	types := make([]cost.Type, n)
	t := bestT
	for k := len(chain) - 1; k >= 0; k-- {
		r := chain[k]
		types[r.unit] = cost.Type(t)
		if r.paths != nil {
			for pi, path := range r.paths {
				for li, u := range path {
					types[u] = r.pathTypes[t][pi][li]
				}
			}
		}
		t = r.back[t]
	}
	return types, bestCost, nil
}

// Outcomes of refRunDP; the differential test compares only whether an
// error occurred.
var (
	errNoUnits    = errors.New("no units")
	errNoMerge    = errors.New("parallel region without merge unit")
	errInfeasible = errors.New("no feasible assignment")
)

// typeSets are the restricted candidate sets the differential test draws
// from.
var typeSets = [][]cost.Type{
	nil,
	{cost.TypeI, cost.TypeII},
	{cost.TypeI, cost.TypeIII},
	{cost.TypeII, cost.TypeIII},
	{cost.TypeIII, cost.TypeI},
	{cost.TypeII},
}

// randomFixed pins roughly share of the layers, chosen by name hash, to a
// type drawn from the same hash.
func randomFixed(seed int64, share float64) FixedAssignment {
	return func(l dnn.WeightedLayer) (cost.Type, bool) {
		h := fnv.New64a()
		h.Write([]byte(l.Name))
		v := h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15
		if float64(v%1000)/1000 >= share {
			return 0, false
		}
		return cost.Types[(v>>20)%3], true
	}
}

// diffCtx builds a level context over net with random sides, ratio,
// options and (optionally) memory pressure, and poisons a random share of
// (unit, type) intra-layer costs with +Inf so some types — and, when a
// pinned unit is hit, whole paths — become infeasible.
func diffCtx(rnd *rand.Rand, net *dnn.Network) *levelCtx {
	opt := Options{
		Types:     typeSets[rnd.Intn(len(typeSets))],
		Objective: Objective(rnd.Intn(2)),
		Mode:      Mode(rnd.Intn(2)),
		Linearize: rnd.Intn(4) == 0,
	}
	if rnd.Intn(2) == 0 {
		opt.Fixed = randomFixed(rnd.Int63(), rnd.Float64())
	}
	opt = opt.withDefaults()
	sideI := Side{Compute: 1e12 * (1 + 400*rnd.Float64()), Net: 1e9 * (1 + 100*rnd.Float64())}
	sideJ := Side{Compute: 1e12 * (1 + 400*rnd.Float64()), Net: 1e9 * (1 + 100*rnd.Float64())}
	c := rootCtx(net, opt, sideI, sideJ)
	c.alpha = cost.ClampRatio(rnd.Float64())
	if rnd.Intn(3) == 0 {
		c.memLambda = 10 * rnd.Float64()
		c.capI = 1e6 * (1 + 1e4*rnd.Float64())
		c.capJ = 1e6 * (1 + 1e4*rnd.Float64())
	}
	if rnd.Intn(3) == 0 {
		share := 0.3 * rnd.Float64()
		for u := range c.intraU {
			for t := range c.intraU[u] {
				if !c.units[u].Virtual && rnd.Float64() < share {
					c.intraU[u][t] = math.Inf(1)
				}
			}
		}
	}
	return c
}

// TestRunDPMatchesReference checks runDP against the per-(entry, merge)
// reference solver on random series-parallel networks (identity shortcuts
// give empty paths), the multi-path evaluation models, restricted and
// pinned type sets, infeasible types, both objectives, both modes and the
// memory-pressure penalty: the assignment and the objective's bits must
// match exactly, and so must infeasibility.
func TestRunDPMatchesReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(16))
	var nets []*dnn.Network
	for seed := int64(1); seed <= 60; seed++ {
		net, err := workload.GenerateNetwork(seed, workload.Config{ResidualProb: 0.5, MaxLayers: 16})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	nets = append(nets, buildNet(t, "resnet50", 64), buildNet(t, "inception", 32), residualNet())
	cases, infeasible, multiPath := 0, 0, 0
	for _, net := range nets {
		for rep := 0; rep < 12; rep++ {
			c := diffCtx(rnd, net)
			// Run the alternation shape solveSplit uses: the same context
			// solved at several ratios, so reused scratch is exercised.
			for step := 0; step < 3; step++ {
				if step > 0 {
					c.alpha = cost.ClampRatio(rnd.Float64())
				}
				wantTypes, wantCost, wantErr := refRunDP(c)
				gotTypes, gotCost, gotErr := c.runDP()
				cases++
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("%s: reference err %v, runDP err %v", net.Name, wantErr, gotErr)
				}
				if wantErr != nil {
					infeasible++
					continue
				}
				if !equalTypes(gotTypes, wantTypes) || math.Float64bits(gotCost) != math.Float64bits(wantCost) {
					t.Fatalf("%s (opt %+v, alpha %v, λ %v): runDP = %v %v, reference = %v %v",
						net.Name, c.opt, c.alpha, c.memLambda, gotTypes, gotCost, wantTypes, wantCost)
				}
				for _, s := range c.planSegs {
					if s.unit < 0 {
						multiPath++
						break
					}
				}
			}
		}
	}
	t.Logf("%d cases, %d infeasible, %d multi-path", cases, infeasible, multiPath)
	if infeasible == 0 || multiPath == 0 {
		t.Fatalf("coverage: %d cases, %d infeasible, %d multi-path", cases, infeasible, multiPath)
	}
}

// TestEdgeRowMatchesPairwise checks the DP's rows against the per-pair
// definitions bit for bit: edgeRow (and edgeCost) against refEdgeCost on
// all nine type pairs, and unitRow (and unitCost) against refUnitCost on
// every type, in both modes, under both objectives, with and without the
// memory penalty, at random ratios, sides and boundaries (0 and 1
// included) on networks with virtual junctions.
func TestEdgeRowMatchesPairwise(t *testing.T) {
	rnd := rand.New(rand.NewSource(44))
	nets := []*dnn.Network{buildNet(t, "resnet50", 64), buildNet(t, "inception", 32), residualNet()}
	alphas := []float64{0.5, cost.MinRatio, 1 - cost.MinRatio}
	edges, units := 0, 0
	for rep := 0; rep < 48; rep++ {
		net := nets[rep%len(nets)]
		opt := Options{Objective: Objective(rep % 2), Mode: Mode(rep / 2 % 2)}.withDefaults()
		side := func() Side {
			return Side{Compute: 1e12 * (1 + 400*rnd.Float64()), Net: 1e9 * (1 + 100*rnd.Float64())}
		}
		c := rootCtx(net, opt, side(), side())
		c.alpha = cost.ClampRatio(rnd.Float64())
		if rep%8 < len(alphas) {
			c.alpha = alphas[rep%8]
		}
		if rep%3 == 0 {
			c.memLambda = 10 * rnd.Float64()
			c.capI = 1e6 * (1 + 1e4*rnd.Float64())
			c.capJ = 1e6 * (1 + 1e4*rnd.Float64())
		}
		// Random boundaries: each unit's producer and consumer sizes, so
		// the edge's boundary is the smaller of two random draws, with 0
		// and 1 drawn often.
		for u := range c.afU {
			for _, sz := range []*int64{&c.afU[u], &c.afNextU[u]} {
				switch rnd.Intn(6) {
				case 0:
					*sz = 0
				case 1:
					*sz = 1
				default:
					*sz = rnd.Int63n(1 << uint(1+rnd.Intn(50)))
				}
			}
		}
		for _, e := range c.edges {
			row := c.edgeRow(e[0], e[1])
			for _, tt := range cost.Types {
				for _, tn := range cost.Types {
					want := refEdgeCost(c, e[0], e[1], tt, tn)
					if got := row[tt][tn]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s edge %v (%v→%v, mode %v, objective %v, alpha %v, boundary %d): edgeRow %v, per-pair %v",
							net.Name, e, tt, tn, opt.Mode, opt.Objective, c.alpha, c.boundary(e[0], e[1]), got, want)
					}
					if got := c.edgeCost(e[0], e[1], tt, tn); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s edge %v (%v→%v): edgeCost %v, per-pair %v", net.Name, e, tt, tn, got, want)
					}
				}
			}
			edges++
		}
		for u := range c.units {
			var row [dpTypes]float64
			c.unitRow(u, cost.Types, &row)
			for _, tu := range cost.Types {
				want := refUnitCost(c, u, tu)
				if got := row[tu]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s unit %d (%v, mode %v, objective %v, alpha %v, λ %v): unitRow %v, per-pair %v",
						net.Name, u, tu, opt.Mode, opt.Objective, c.alpha, c.memLambda, got, want)
				}
				if got := c.unitCost(u, tu); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s unit %d (%v): unitCost %v, per-pair %v", net.Name, u, tu, got, want)
				}
			}
			units++
		}
	}
	t.Logf("%d edges × 9 pairs, %d units × 3 types", edges, units)
}
