package core

import (
	"fmt"
	"math"
	"slices"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/tensor"
)

// Side is the cost-model view of one accelerator group at a hierarchy
// split: computation density c_i (FLOPS) and network bandwidth b_i
// (bytes/s).
type Side struct {
	Compute float64
	Net     float64
}

// segRef is a segment with unit indices resolved against the units slice.
type segRef struct {
	unit  int     // unit index, or -1 for a parallel region
	paths [][]int // unit indices per path (parallel regions only)
}

// indexSegments resolves net.Segments against the Units() ordering. Every
// search builds it, so the paths share two backing arrays instead of
// allocating one slice per path.
func indexSegments(net *dnn.Network) []segRef {
	paths, pathUnits := 0, 0
	for _, s := range net.Segments {
		paths += len(s.Paths)
		for _, p := range s.Paths {
			pathUnits += len(p)
		}
	}
	lists := make([][]int, paths)
	idxs := make([]int, pathUnits)
	refs := make([]segRef, 0, len(net.Segments))
	idx := 0
	for _, s := range net.Segments {
		if s.Unit != nil {
			refs = append(refs, segRef{unit: idx})
			idx++
			continue
		}
		r := segRef{unit: -1, paths: lists[:len(s.Paths):len(s.Paths)]}
		lists = lists[len(s.Paths):]
		for j, p := range s.Paths {
			path := idxs[:len(p):len(p)]
			idxs = idxs[len(p):]
			for i := range path {
				path[i] = idx
				idx++
			}
			r.paths[j] = path
		}
		refs = append(refs, r)
	}
	return refs
}

// markRepeats returns, indexed like segs, which parallel regions can
// tabulate exactly what the region before them does: those whose paths,
// entry unit and merge unit match the previous region's position by
// position in shape, unit constants and allowed types, as the regions of
// a repeated block (a ResNet stage's identity blocks) do. runDP checks
// the rest at run time (sameTables). It is the only set-up the region
// reuse costs, O(units) per search shape, and it returns nil for a
// network with no such region (Inception), whose DP runs then compare
// nothing.
func markRepeats(segs []segRef, consts []unitConst, allowed func(u int) []cost.Type) []bool {
	same := func(a, b int) bool { return consts[a] == consts[b] && slices.Equal(allowed(a), allowed(b)) }
	var repeats []bool
	last := -1
	for i := 1; i+1 < len(segs); i++ {
		s := &segs[i]
		if s.unit >= 0 || segs[i-1].unit < 0 || segs[i+1].unit < 0 {
			continue
		}
		if last >= 0 {
			prev := &segs[last]
			repeat := len(s.paths) == len(prev.paths) && same(segs[i-1].unit, segs[last-1].unit) && same(segs[i+1].unit, segs[last+1].unit)
			for k := 0; repeat && k < len(s.paths); k++ {
				a, b := s.paths[k], prev.paths[k]
				repeat = len(a) == len(b)
				for x := 0; repeat && x < len(a); x++ {
					repeat = same(a[x], b[x])
				}
			}
			if repeat {
				if repeats == nil {
					repeats = make([]bool, len(segs))
				}
				repeats[i] = true
			}
		}
		last = i
	}
	return repeats
}

// levelCtx bundles everything the DP needs at one hierarchy node. A
// search shape recycles its contexts through a pool (planner.level): the
// per-unit slices and the DP scratch are sized once for the network, and
// each split only rewrites their contents.
type levelCtx struct {
	// units and consts are the search shape's: the network's units (names
	// and fixed types) and their constants (coeffs.go).
	units  []dnn.WeightedLayer
	consts []unitConst
	// dims are the split's per-unit extents: the caller's slice, read
	// while the context serves the split. Every context goes back to the
	// pool before its split returns, so the slice outlives it.
	dims []extents
	// edges is the Table 5 edge enumeration of the true series-parallel
	// structure (dnn.Network.Edges), used to evaluate what a plan actually
	// costs.
	edges [][2]int
	// planSegs is the structure the search sees: the true one except for
	// the HyPar baseline, which "can only handle DNN architectures with
	// linear structure" (Section 1): HyPar decides on a flattened chain and
	// then pays the real multi-path conversion costs it never modelled.
	planSegs []segRef
	// repeats is the search shape's markRepeats of planSegs: nil when no
	// region repeats the one before it.
	repeats []bool
	sideI   Side
	sideJ   Side
	alpha   float64
	opt     Options

	// memLambda, when positive, folds a residency-pressure penalty into
	// every DP unit cost (memlimit.go's constrained ladder): λ times the
	// share of each child subtree's aggregate capacity (capI, capJ) the
	// unit's resident tensors would consume under the candidate type at
	// the current ratio. The penalty steers decisions only; evalLevel and
	// every reported cost stay penalty-free.
	memLambda  float64
	capI, capJ float64

	// Per-unit coefficient caches, filled once by prepare() (coeffs.go):
	// mode-appropriate FLOPs, Table 4 intra-layer elements per type, and
	// the A(F_l)/A(F_{l+1}) boundary inputs. They make every cost
	// evaluation below O(1) in the unit's tensor shapes.
	flopsU  []float64
	intraU  [][3]float64
	afU     []int64
	afNextU []int64
	// dp is runDP's working memory, allocated on the first call and
	// reused by every later split the context serves.
	dp dpScratch
}

// newLevelCtx builds an unprepared context for splits of shape s's
// network under opt; reset readies it for a particular split.
func newLevelCtx(s *searchShape, opt Options) *levelCtx {
	return &levelCtx{
		units:    s.units,
		consts:   s.consts,
		edges:    s.edges,
		planSegs: s.planSegs,
		repeats:  s.repeats,
		opt:      opt,
	}
}

// reset readies the context for one split at dims between sides sideI
// and sideJ: ratio and memory penalty cleared, coefficients recomputed.
func (c *levelCtx) reset(dims []extents, sideI, sideJ Side) *levelCtx {
	c.dims = dims
	c.sideI, c.sideJ = sideI, sideJ
	c.alpha, c.memLambda, c.capI, c.capJ = 0, 0, 0, 0
	c.prepare()
	return c
}

// level takes a context from the search shape's pool, reset for one
// split; every search of the shape's fingerprint shares the pool.
// Callers return it with p.levels.Put as soon as they have the split's
// decisions and evaluation, before recursing into the children; nothing
// a plan node keeps (Types) points into it.
func (p *planner) level(dims []extents, sideI, sideJ Side) *levelCtx {
	return p.levels.Get().(*levelCtx).reset(dims, sideI, sideJ)
}

func (c *levelCtx) beta() float64 { return 1 - c.alpha }

// allowedTypes returns the candidate types for a unit: the fixed assignment
// if one applies (never for virtual junctions), otherwise the option set.
func (c *levelCtx) allowedTypes(u int) []cost.Type {
	l := c.units[u]
	if c.opt.Fixed != nil && !l.Virtual {
		if t, ok := c.opt.Fixed(l); ok {
			// A one-element window of cost.Types: no allocation.
			return cost.Types[t : t+1]
		}
	}
	return c.opt.Types
}

// unitCost returns the DP cost of executing unit u under type t at this
// level: unitRow's entry for t.
func (c *levelCtx) unitCost(u int, t cost.Type) float64 {
	var row [dpTypes]float64
	c.unitRow(u, cost.Types[t:t+1], &row)
	return row[t]
}

// unitRow writes into row the DP cost of executing unit u under each of
// types at this level: computation cost (Eq. 8) plus intra-layer
// communication cost (Table 4), combined per the objective. The α- and
// β-share compute terms depend only on the unit, so they are computed
// once for all types. Virtual junction units cost nothing here — they
// only induce inter-layer conversions at their boundaries.
func (c *levelCtx) unitRow(u int, types []cost.Type, row *[dpTypes]float64) {
	if c.consts[u].virtual {
		for _, t := range types {
			row[t] = 0
		}
		return
	}
	intra := &c.intraU[u]
	if c.opt.Objective == ObjectiveCommOnly {
		// Both groups remotely access the peer's partial-sum tensor, so the
		// total traffic is twice the Table 4 amount.
		for _, t := range types {
			row[t] = 2 * (intra[t] * tensor.BytesPerElement)
		}
	} else {
		flops := c.flopsU[u]
		compI := c.alpha * flops / c.sideI.Compute
		compJ := c.beta() * flops / c.sideJ.Compute
		for _, t := range types {
			intraBytes := intra[t] * tensor.BytesPerElement
			row[t] = max(compI+intraBytes/c.sideI.Net, compJ+intraBytes/c.sideJ.Net)
		}
	}
	if c.memLambda > 0 {
		for _, t := range types {
			row[t] += c.memLambda * c.memPressure(u, t)
		}
	}
}

// memPressure scores the capacity share unit u's resident tensors would
// consume on each side of the split under type t at the current ratio.
// Type-I replicates the kernel (both shares keep the full AW), Type-II
// and Type-III shard it — exactly the distinction the constrained ladder
// needs the DP to feel.
func (c *levelCtx) memPressure(u int, t cost.Type) float64 {
	k, inference := &c.consts[u], c.opt.Mode == ModeInference
	si := k.sizes(c.dims[u].scale(k.virtual, t, c.alpha), inference)
	sj := k.sizes(c.dims[u].scale(k.virtual, t, c.beta()), inference)
	resI := float64(si.residentBytes() + c.opt.Optimizer.StateBytes(si.aw))
	resJ := float64(sj.residentBytes() + c.opt.Optimizer.StateBytes(sj.aw))
	return resI/c.capI + resJ/c.capJ
}

// boundary returns the size of the tensor actually converted on the edge
// from unit p to unit n — cost.EdgeBoundary's rule, the smaller of the
// producer's output and the consumer's input, over the cached sizes.
func (c *levelCtx) boundary(p, n int) int64 {
	out := c.afNextU[p]
	in := c.afU[n]
	if out < in {
		return out
	}
	return in
}

// edgeCost returns the DP cost of the inter-layer transition from unit p
// (type tt) to unit n (type t): edgeRow's entry for the pair.
func (c *levelCtx) edgeCost(p, n int, tt, t cost.Type) float64 {
	return c.edgeRow(p, n)[tt][t]
}

// edgeRow returns the DP cost of every inter-layer transition on the edge
// from unit p to unit n, indexed [tt][t] by the two units' types: the
// Table 5 conversion cost over the boundary tensor, combined per the
// objective. Every transition is one of the closed forms patKind names,
// so each non-zero form is evaluated once and spread over the row
// through pat(); patZero transitions cost +0.
func (c *levelCtx) edgeRow(p, n int) (row [dpTypes][dpTypes]float64) {
	b := float64(c.boundary(p, n))
	alpha, beta := c.alpha, c.beta()
	commOnly := c.opt.Objective == ObjectiveCommOnly
	netI, netJ := c.sideI.Net, c.sideJ.Net
	price := func(k patKind) float64 {
		ei, ej := patElems(k, b, alpha, beta), patElems(k, b, beta, alpha)
		if commOnly {
			return (ei + ej) * tensor.BytesPerElement
		}
		return max(ei*tensor.BytesPerElement/netI, ej*tensor.BytesPerElement/netJ)
	}
	byKind := [patBeta + 1]float64{patAB2: price(patAB2), patAB1: price(patAB1), patBeta: price(patBeta)}
	for tt, kinds := range c.pat() {
		for t, k := range kinds {
			row[tt][t] = byKind[k]
		}
	}
	return row
}

// The Section 5.2 multi-path DP. A parallel region between the unit
// before it (state tt) and its merge unit (state t) costs the sum, over
// its paths, of each path's minimum given both endpoint states. Only the
// last edge of a path, into the merge unit, depends on t, so each path is
// solved in two steps instead of once per (tt, t) pair: pathForward
// builds the path's forward table for every feasible entry type tt, and
// pathFinish closes those tables into the merge unit once per merge type
// t. runDP sums the finished minima per (t, tt) pair, in the same order
// and with the same strict-< tie rule as a per-pair solve, and backtracks
// a path's inner types only for the pair that wins.
//
// One runDP call prices every edge of planSegs once, as an edgeRow for
// all nine type pairs, and every (unit, type) once, as a unitRow: the
// loops below only index those rows. A path's merge edge too is priced
// once (solveRegion) and shared by every merge type.
//
// A region's tables are fixed by its path shapes, the allowed types of
// its units (entry and merge units included), its path units' rows, the
// boundary size of each of its edges and which entry states are finite.
// A repeated block (a ResNet stage's identity blocks) often matches the
// region before it in all of these, and then runDP points it at that
// region's tables instead of solving it again: markRepeats finds the
// candidates once per search shape, and sameTables checks the rest.
//
// All of runDP's working memory lives in the levelCtx's dpScratch, sized
// from planSegs on first use and reused by every later runDP call on the
// same context: the type/ratio alternation of one split, and every later
// split the pooled context serves.

// dpTypes is the number of partition types the DP tables are indexed by.
const dpTypes = 3

// dpScratch is runDP's working memory. The path tables of every region
// live side by side in cost/back, so the final backtrack can walk any of
// them: a path of length L owns L·dpTypes·dpTypes cells laid out
// [position k][entry tt][type x], and dpTypes·dpTypes finish slots in
// fin/last laid out [merge t][entry tt].
type dpScratch struct {
	// allowed caches allowedTypes per unit; nil until first use.
	allowed [][]cost.Type
	// unit caches unitCost per (unit, type) for the current call.
	unit [][dpTypes]float64
	// cost/fin and back/last are each carved from one allocation.
	cost, fin  []float64
	back, last []int8
	chain      []dpRec
}

// dpRec is one main-chain position of the DP.
type dpRec struct {
	unit int
	// back is the predecessor state chosen per own state.
	back [dpTypes]int8
	// paths is the region preceding a merge unit (nil otherwise); cells
	// and fins are the offsets of its tables in the scratch path tables:
	// the previous region's offsets when it reused that region's tables.
	paths       [][]int
	cells, fins int
}

// scratch returns the context's DP scratch, allocating it on first use.
func (c *levelCtx) scratch() *dpScratch {
	dp := &c.dp
	if dp.allowed != nil {
		return dp
	}
	cells, fins, chain := 0, 0, 0
	for _, seg := range c.planSegs {
		if seg.unit >= 0 {
			chain++
			continue
		}
		for _, path := range seg.paths {
			cells += len(path) * dpTypes * dpTypes
			fins += dpTypes * dpTypes
		}
	}
	floats := make([]float64, cells+fins)
	ints := make([]int8, cells+fins)
	*dp = dpScratch{
		allowed: make([][]cost.Type, len(c.units)),
		unit:    make([][dpTypes]float64, len(c.units)),
		cost:    floats[:cells],
		fin:     floats[cells:],
		back:    ints[:cells],
		last:    ints[cells:],
		chain:   make([]dpRec, 0, chain),
	}
	for u := range dp.allowed {
		dp.allowed[u] = c.allowedTypes(u)
	}
	return dp
}

// pathForward fills the forward tables of a non-empty parallel path for
// every entry type tt (the state of unit prev before the region) with a
// finite cost in cur. cst[(k·3+tt)·3+x] is the cheapest cost of the
// entry conversion plus the path's first k+1 units and their
// conversions, with path[k] in type x; back at the same index is the
// arg-min type of path[k-1] (-1 at k = 0). Each edge of the path, the
// entry edge included, is priced once as an edgeRow and its row shared by
// all entry types; infeasible cells stay +Inf.
func (c *levelCtx) pathForward(prev int, path []int, cur *[dpTypes]float64, cst []float64, back []int8) {
	inf := math.Inf(1)
	for i := range cst {
		cst[i] = inf
		back[i] = -1
	}
	dp := &c.dp
	entry := c.edgeRow(prev, path[0])
	for _, t0 := range dp.allowed[path[0]] {
		base := dp.unit[path[0]][t0]
		for _, tt := range dp.allowed[prev] {
			if math.IsInf(cur[tt], 1) {
				continue
			}
			cst[int(tt)*dpTypes+int(t0)] = entry[tt][t0] + base
		}
	}
	const row = dpTypes * dpTypes
	for k := 1; k < len(path); k++ {
		prow, krow, kback := cst[(k-1)*row:k*row], cst[k*row:(k+1)*row], back[k*row:(k+1)*row]
		edge := c.edgeRow(path[k-1], path[k])
		for _, tk := range dp.allowed[path[k]] {
			base := dp.unit[path[k]][tk]
			for _, tp := range dp.allowed[path[k-1]] {
				e := edge[tp][tk]
				for tt := 0; tt < dpTypes; tt++ {
					prevCost := prow[tt*dpTypes+int(tp)]
					if math.IsInf(prevCost, 1) {
						continue
					}
					cand := prevCost + e + base
					if cand < krow[tt*dpTypes+int(tk)] {
						krow[tt*dpTypes+int(tk)] = cand
						kback[tt*dpTypes+int(tk)] = int8(tp)
					}
				}
			}
		}
	}
}

// pathFinish closes a non-empty path's forward tables into merge unit m
// under every merge type t, over the merge edge's row edge (edgeRow of
// the path's last unit and m): fin[t·3+tt] is the path's minimum cost
// between the endpoint states (tt, t) and last at the same index the
// arg-min type of its last unit (+Inf and -1 when no type is feasible).
func (c *levelCtx) pathFinish(path []int, m int, edge *[dpTypes][dpTypes]float64, cst []float64, fin []float64, last []int8) {
	k := len(path) - 1
	row := cst[k*dpTypes*dpTypes : (k+1)*dpTypes*dpTypes]
	lastTypes := c.dp.allowed[path[k]]
	for _, t := range c.dp.allowed[m] {
		tfin := fin[int(t)*dpTypes : int(t+1)*dpTypes]
		tlast := last[int(t)*dpTypes : int(t+1)*dpTypes]
		for tt := range tfin {
			tfin[tt] = math.Inf(1)
			tlast[tt] = -1
		}
		for _, tl := range lastTypes {
			e := edge[tl][t]
			for tt := range tfin {
				if math.IsInf(row[tt*dpTypes+int(tl)], 1) {
					continue
				}
				cand := row[tt*dpTypes+int(tl)] + e
				if cand < tfin[tt] {
					tfin[tt] = cand
					tlast[tt] = int8(tl)
				}
			}
		}
	}
}

// solveRegion tabulates every path's minima between the endpoint states
// of a region from prev to merge unit m into the scratch at the region's
// offsets, and returns the offsets past the region. Each path's merge
// edge is priced once, for every merge type. An empty path is a pure
// identity shortcut: its cost is the direct tt→t conversion on the merge
// unit's boundary.
func (c *levelCtx) solveRegion(prev int, paths [][]int, m int, cur *[dpTypes]float64, cells, fins int) (int, int) {
	dp := &c.dp
	for _, path := range paths {
		n := len(path) * dpTypes * dpTypes
		cst := dp.cost[cells : cells+n]
		fin := dp.fin[fins : fins+dpTypes*dpTypes]
		if len(path) > 0 {
			c.pathForward(prev, path, cur, cst, dp.back[cells:cells+n])
			edge := c.edgeRow(path[len(path)-1], m)
			c.pathFinish(path, m, &edge, cst, fin, dp.last[fins:fins+dpTypes*dpTypes])
		} else {
			edge := c.edgeRow(prev, m)
			for _, t := range dp.allowed[m] {
				for _, tt := range dp.allowed[prev] {
					if !math.IsInf(cur[tt], 1) {
						fin[int(t)*dpTypes+int(tt)] = edge[tt][t]
					}
				}
			}
		}
		cells += n
		fins += dpTypes * dpTypes
	}
	return cells, fins
}

// sameTables reports whether the region at planSegs[i], which
// markRepeats flagged, tabulates bit for bit what the region before it,
// at planSegs[j], did in this run from entry states of the same
// finiteness. markRepeats has matched the two regions' shapes and
// allowed types; what a split sets is every path unit's DP row and every
// edge's boundary size, the entry and merge edges included (an empty
// path's one edge runs from the entry unit to the merge unit), so those
// are compared here. Rows, not extents: a row is what the tables read,
// and equal extents give equal rows only while nothing else writes the
// coefficient caches.
func (c *levelCtx) sameTables(j, i int) bool {
	a, b := c.planSegs[j].paths, c.planSegs[i].paths
	ma, mb := c.planSegs[j+1].unit, c.planSegs[i+1].unit
	for k, pb := range b {
		pa := a[k]
		ua, ub := c.planSegs[j-1].unit, c.planSegs[i-1].unit
		for x := range pb {
			if c.boundary(ua, pa[x]) != c.boundary(ub, pb[x]) || !sameRow(&c.dp.unit[pa[x]], &c.dp.unit[pb[x]]) {
				return false
			}
			ua, ub = pa[x], pb[x]
		}
		if c.boundary(ua, ma) != c.boundary(ub, mb) {
			return false
		}
	}
	return true
}

// sameRow reports whether two DP unit rows are equal bit for bit.
func sameRow(a, b *[dpTypes]float64) bool {
	for t := range a {
		if math.Float64bits(a[t]) != math.Float64bits(b[t]) {
			return false
		}
	}
	return true
}

// sameFinite reports whether two DP states have the same finite entries:
// a region's tables read the entry states only to skip infinite ones.
func sameFinite(a, b *[dpTypes]float64) bool {
	for t := range a {
		if math.IsInf(a[t], 1) != math.IsInf(b[t], 1) {
			return false
		}
	}
	return true
}

// runDP executes the layer-wise dynamic programming (Eq. 9) over the whole
// network at one hierarchy node, returning the per-unit type assignment
// (indexed like net.Units()) and the minimized objective value. The
// returned slice is freshly allocated: plan nodes keep it, and memo hits
// alias it.
func (c *levelCtx) runDP() ([]cost.Type, float64, error) {
	n := len(c.units)
	if n == 0 {
		return nil, 0, fmt.Errorf("core: no units to partition")
	}
	inf := math.Inf(1)
	dp := c.scratch()
	for u, allowed := range dp.allowed {
		c.unitRow(u, allowed, &dp.unit[u])
	}
	chain := dp.chain[:0]

	cur := [dpTypes]float64{inf, inf, inf}
	first := c.planSegs[0].unit
	for _, t := range dp.allowed[first] {
		cur[t] = dp.unit[first][t]
	}
	chain = append(chain, dpRec{unit: first, back: [dpTypes]int8{-1, -1, -1}})

	cells, fins := 0, 0
	// last is the latest region of a network with repeats: its planSegs
	// index, its table offsets and the entry states it was solved from.
	var last struct {
		seg, cells, fins int
		cur              [dpTypes]float64
	}
	i := 1
	for i < len(c.planSegs) {
		seg := c.planSegs[i]
		prevUnit := chain[len(chain)-1].unit
		next := [dpTypes]float64{inf, inf, inf}
		r := dpRec{back: [dpTypes]int8{-1, -1, -1}}

		if seg.unit >= 0 {
			// Plain series transition (Eq. 9).
			v := seg.unit
			r.unit = v
			edge := c.edgeRow(prevUnit, v)
			for _, t := range dp.allowed[v] {
				base := dp.unit[v][t]
				for _, tt := range dp.allowed[prevUnit] {
					if math.IsInf(cur[tt], 1) {
						continue
					}
					cand := cur[tt] + edge[tt][t] + base
					if cand < next[t] {
						next[t] = cand
						r.back[t] = int8(tt)
					}
				}
			}
			i++
		} else {
			// Parallel region followed by its merge unit (Section 5.2):
			// enumerate endpoint states and sum the per-path minima.
			if i+1 >= len(c.planSegs) || c.planSegs[i+1].unit < 0 {
				return nil, 0, fmt.Errorf("core: parallel region without merge unit")
			}
			m := c.planSegs[i+1].unit
			r.unit, r.paths = m, seg.paths
			if c.repeats != nil && c.repeats[i] && sameFinite(&cur, &last.cur) && c.sameTables(last.seg, i) {
				// A repeated block: the region before it tabulated
				// exactly these tables, and its backtrack reads them.
				r.cells, r.fins = last.cells, last.fins
			} else {
				r.cells, r.fins = cells, fins
				cells, fins = c.solveRegion(prevUnit, seg.paths, m, &cur, cells, fins)
			}
			if c.repeats != nil {
				last.seg, last.cells, last.fins, last.cur = i, r.cells, r.fins, cur
			}
			for _, t := range dp.allowed[m] {
				base := dp.unit[m][t]
				for _, tt := range dp.allowed[prevUnit] {
					if math.IsInf(cur[tt], 1) {
						continue
					}
					sum := 0.0
					feasible := true
					for k := range seg.paths {
						pc := dp.fin[r.fins+(k*dpTypes+int(t))*dpTypes+int(tt)]
						if math.IsInf(pc, 1) {
							feasible = false
							break
						}
						sum += pc
					}
					if !feasible {
						continue
					}
					cand := cur[tt] + sum + base
					if cand < next[t] {
						next[t] = cand
						r.back[t] = int8(tt)
					}
				}
			}
			i += 2
		}
		cur = next
		chain = append(chain, r)
	}
	dp.chain = chain

	// Pick the best final state and backtrack.
	bestT, bestCost := -1, inf
	lastUnit := chain[len(chain)-1].unit
	for _, t := range dp.allowed[lastUnit] {
		if cur[t] < bestCost {
			bestCost = cur[t]
			bestT = int(t)
		}
	}
	if bestT < 0 {
		return nil, 0, fmt.Errorf("core: no feasible assignment (type set %v too restrictive)", c.opt.Types)
	}

	types := make([]cost.Type, n)
	t := int8(bestT)
	for k := len(chain) - 1; k >= 0; k-- {
		r := &chain[k]
		types[r.unit] = cost.Type(t)
		tt := int(r.back[t])
		cells, fins := r.cells, r.fins
		for _, path := range r.paths {
			x := dp.last[fins+int(t)*dpTypes+tt]
			for j := len(path) - 1; j >= 0; j-- {
				types[path[j]] = cost.Type(x)
				x = dp.back[cells+(j*dpTypes+tt)*dpTypes+int(x)]
			}
			cells += len(path) * dpTypes * dpTypes
			fins += dpTypes * dpTypes
		}
		t = int8(tt)
	}
	return types, bestCost, nil
}

// LevelEval is the cost breakdown of a type assignment at one hierarchy
// node, for a given ratio α.
type LevelEval struct {
	// TimeI and TimeJ are the per-iteration costs of the two groups at this
	// level: α-share of computation plus all communication each performs.
	TimeI, TimeJ float64
	// CommTime is the communication-only time at this level, taking the
	// slower group per transfer (what the level contributes to the
	// hierarchical execution-time model).
	CommTime float64
	// CommBytes is the total bytes crossing the split, both directions.
	CommBytes float64
}

// evalLevel computes the breakdown for fixed types and ratio.
func (c *levelCtx) evalLevel(types []cost.Type) LevelEval {
	var ev LevelEval
	pat := c.pat()
	for u := range c.consts {
		if c.consts[u].virtual {
			continue
		}
		flops := c.flopsU[u]
		intraBytes := c.intraU[u][types[u]] * tensor.BytesPerElement
		ev.TimeI += c.alpha*flops/c.sideI.Compute + intraBytes/c.sideI.Net
		ev.TimeJ += c.beta()*flops/c.sideJ.Compute + intraBytes/c.sideJ.Net
		ev.CommTime += max(intraBytes/c.sideI.Net, intraBytes/c.sideJ.Net)
		ev.CommBytes += 2 * intraBytes
	}
	for _, e := range c.edges {
		boundary := float64(c.boundary(e[0], e[1]))
		k := pat[types[e[0]]][types[e[1]]]
		bi := patElems(k, boundary, c.alpha, c.beta()) * tensor.BytesPerElement
		bj := patElems(k, boundary, c.beta(), c.alpha) * tensor.BytesPerElement
		ev.TimeI += bi / c.sideI.Net
		ev.TimeJ += bj / c.sideJ.Net
		ev.CommTime += max(bi/c.sideI.Net, bj/c.sideJ.Net)
		ev.CommBytes += bi + bj
	}
	return ev
}

// DegenerateHardwareError reports accelerator resources that produce a
// non-finite cost — zero, NaN or Inf compute density or bandwidth, as a
// degenerately degraded spec can exhibit. Callers get a typed error to
// branch on instead of a NaN makespan silently propagating through the
// plan tree.
type DegenerateHardwareError struct {
	// Level is the hierarchy level at which the degenerate resource was
	// detected (0 when unknown).
	Level int
	// Detail describes the offending quantity.
	Detail string
}

func (e *DegenerateHardwareError) Error() string {
	if e.Level > 0 {
		return fmt.Sprintf("core: degenerate hardware at level %d: %s", e.Level, e.Detail)
	}
	return fmt.Sprintf("core: degenerate hardware: %s", e.Detail)
}

// checkSides validates the cost-model resources of a split: both groups'
// compute density and bandwidth must be finite and positive, or every
// cost below turns into NaN/Inf.
func checkSides(level int, si, sj Side) error {
	for _, s := range [...]struct {
		name string
		v    float64
	}{
		{"side-I compute", si.Compute}, {"side-I bandwidth", si.Net},
		{"side-J compute", sj.Compute}, {"side-J bandwidth", sj.Net},
	} {
		if !(s.v > 0) || math.IsInf(s.v, 0) {
			return &DegenerateHardwareError{Level: level, Detail: fmt.Sprintf("%s = %g", s.name, s.v)}
		}
	}
	return nil
}

// solveRatio finds the α balancing the two groups' level costs for fixed
// types (the Eq. 10 balance condition), by bisection on
// g(α) = TimeI(α) − TimeJ(α). g may run either way: the compute terms make
// it rise in α and the β-slab conversion terms make it fall, so for two
// identical halves it is (α − β)(C − B), falling when the β-scaled
// communication B exceeds the compute C. Whenever g changes sign between
// the extreme shares the bisection finds the balance point; identical
// halves hit an exact root at the first midpoint and get α = 0.5 exactly,
// hence one child key for both. The result is always clamped into (0, 1) —
// [MinRatio, 1−MinRatio] — and a non-finite balance function (zero or NaN
// resources from a degraded spec) yields a typed *DegenerateHardwareError
// instead of a NaN ratio.
//
// Because the assignment is fixed throughout the bisection, the balance
// function collapses to the ratioCoeffs closed form: the O(units + edges)
// aggregation happens once, and each of the at most 60 bisection steps
// costs a handful of multiplications.
func (c *levelCtx) solveRatio(types []cost.Type) (float64, error) {
	rc := c.ratioCoeffs(types)
	return bisectRatio(rc.g)
}

// bisectRatio runs the Eq. 10 bisection on a balance function g, following
// g's direction between the extreme shares.
func bisectRatio(g func(alpha float64) float64) (float64, error) {
	lo, hi := cost.MinRatio, 1-cost.MinRatio
	glo, ghi := g(lo), g(hi)
	if math.IsNaN(glo) || math.IsNaN(ghi) {
		return 0, &DegenerateHardwareError{Detail: fmt.Sprintf("non-finite level cost balance (g(%g)=%g, g(%g)=%g)", lo, glo, hi, ghi)}
	}
	switch {
	case glo > 0 && ghi > 0:
		// No balance point: side I is the slower at every share, so it
		// takes the smallest.
		return lo, nil
	case glo < 0 && ghi < 0:
		return hi, nil
	}
	// g changes sign (or is zero at an endpoint). The direction comes from
	// the endpoints, so a zero at either end still picks one side.
	rising := glo < ghi
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		gm := g(mid)
		if math.IsNaN(gm) {
			obsBisectIters.Add(int64(iter + 1))
			return 0, &DegenerateHardwareError{Detail: fmt.Sprintf("non-finite level cost at alpha %g", mid)}
		}
		if gm == 0 {
			obsBisectIters.Add(int64(iter + 1))
			return mid, nil
		}
		if (gm > 0) == rising {
			hi = mid
		} else {
			lo = mid
		}
	}
	obsBisectIters.Add(60)
	return cost.ClampRatio((lo + hi) / 2), nil
}
