package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/obs"
	"accpar/internal/parallel"
	"accpar/internal/tensor"
)

// planner carries the per-call state of one hierarchical partitioning:
// the network, its root dims, the options, the subproblem memo, the
// worker-pool semaphore bounding the fan-out of the recursion over
// hardware-tree children, and the search shape it solves splits with. A
// planner may be reused across several trees of the same network and
// options — ReplanCtx does exactly that, so subtrees untouched by a
// degradation are solved once.
type planner struct {
	*searchShape
	net *dnn.Network
	// rootDims are the network's unscaled per-unit dims, the dims of
	// every plan root.
	rootDims []tensor.LayerDims
	opt      Options
	memo     *planMemo
	sem      *parallel.Sem
	// cache is the cross-run cache (Options.Cache) whose memo this
	// planner searches on; nil when the planner has a private memo.
	cache *SharedCache
	// ctx aborts the search; done caches its Done channel so the
	// per-subproblem cancellation probe (checkCtx) is one nil comparison
	// when no context was supplied.
	ctx  context.Context
	done <-chan struct{}
	// epoch and rs are per-call bookkeeping. epoch stamps memo entries:
	// newPlanner takes it from an attached cache (the eviction clock); it
	// is zero for an uncached search. rs, set by ReplanCtx and
	// PartitionStatsCtx, collects the call's hit, expansion and eviction
	// counts.
	epoch int64
	rs    *replanStats
}

// searchShape is the part of a search's state fixed by its fingerprint
// (searchFingerprint): the network's units and segment index, both as
// searched and as planned (they differ under Linearize), and a pool of
// prepared level contexts (level.go), so a split reuses DP scratch and
// coefficient slices instead of allocating them. A SharedCache keeps one
// shape per fingerprint beside its memo and hands it to every search on
// that memo; an uncached planner builds a private one.
//
// Networks that differ only in batch size share a fingerprint, so a
// shape may be built from another call's network: nothing read through
// it may depend on units' Dims, which each call supplies as its own
// rootDims and the subproblem keys carry. The shape keeps its builder's
// dims only to lend them, read-only, to calls whose dims are equal
// (rootDimsOf).
type searchShape struct {
	units    []dnn.WeightedLayer
	segs     []segRef
	planSegs []segRef
	levels   sync.Pool
	rootDims []tensor.LayerDims
}

// newSearchShape builds the shape of a search over net under opt.
func newSearchShape(net *dnn.Network, opt Options) *searchShape {
	s := &searchShape{units: net.Units(), segs: indexSegments(net)}
	s.rootDims = make([]tensor.LayerDims, len(s.units))
	for i := range s.units {
		s.rootDims[i] = s.units[i].Dims
	}
	s.planSegs = s.segs
	if opt.Linearize {
		// The search sees a flattened chain (HyPar's linear-structure
		// restriction), but plans are evaluated — and paid for — on the
		// true multi-path structure. Linearize preserves the Units() order,
		// so type vectors index both structures identically.
		s.planSegs = indexSegments(net.Linearize())
	}
	// A cached shape outlives the call that built it: its contexts keep
	// only the fingerprinted options, never a caller's cache or recorder.
	opt.Cache, opt.Audit, opt.Parallelism = nil, nil, 0
	s.levels.New = func() any { return newLevelCtx(s.units, s.segs, s.planSegs, opt) }
	return s
}

// noteHit records a replan hit when the call collects stats; other
// searches skip the replan counters.
func (p *planner) noteHit() {
	if p.rs != nil {
		p.rs.hits.Add(1)
	}
}

// newPlanner validates the inputs and builds the per-call search state.
// With opt.Cache set the planner searches on the cache's memo and shape
// for its search fingerprint under a fresh epoch, and the caller ends the
// search with release; otherwise it gets a private memo and shape.
func newPlanner(ctx context.Context, net *dnn.Network, opt Options) (*planner, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	p := &planner{net: net, opt: opt, sem: parallel.NewSem(opt.Parallelism), ctx: ctx}
	if opt.Cache != nil {
		p.cache = opt.Cache
		p.memo, p.searchShape, p.epoch = opt.Cache.attach(net, opt)
	} else {
		p.memo, p.searchShape = &planMemo{}, newSearchShape(net, opt)
	}
	p.rootDims = p.rootDimsOf(net)
	if ctx != nil {
		p.done = ctx.Done()
	}
	return p, nil
}

// rootDimsOf returns net's per-unit dims, the dims of every plan root:
// the shape's own slice when they equal its builder's (every search of a
// sweep, and a server's repeated requests), a fresh one otherwise.
func (s *searchShape) rootDimsOf(net *dnn.Network) []tensor.LayerDims {
	i, same := 0, true
	eachUnit(net, func(u *dnn.WeightedLayer) {
		same = same && u.Dims == s.rootDims[i]
		i++
	})
	if same {
		return s.rootDims
	}
	dims := make([]tensor.LayerDims, 0, len(s.units))
	eachUnit(net, func(u *dnn.WeightedLayer) { dims = append(dims, u.Dims) })
	return dims
}

// eachUnit calls fn on every unit of net in Units() order, without
// copying the units.
func eachUnit(net *dnn.Network, fn func(u *dnn.WeightedLayer)) {
	for _, s := range net.Segments {
		if s.Unit != nil {
			fn(s.Unit)
			continue
		}
		for _, path := range s.Paths {
			for i := range path {
				fn(&path[i])
			}
		}
	}
}

// release ends a search on an attached cache: it trims the cache to its
// bound and counts the evicted entries as the call's invalidations.
func (p *planner) release() {
	if p.cache == nil {
		return
	}
	n := p.cache.trim()
	if p.rs != nil {
		p.rs.invalidated.Add(n)
	}
}

// plan runs the hierarchical partitioning over one hardware tree.
func (p *planner) plan(tree *hardware.Tree) (*Plan, error) {
	return p.planKeyed(tree, p.subproblemKey(tree, p.rootDims))
}

// planKeyed is plan with the root subproblem key already in hand;
// ReplanCtx hashes the degraded root once for its stale and fresh passes.
func (p *planner) planKeyed(tree *hardware.Tree, key subKey) (*Plan, error) {
	sp := obs.StartSpanCtx(p.ctx, "planner", "plan")
	defer sp.End()
	root, err := p.partitionKeyed(tree, p.rootDims, key)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Network: p.net, Strategy: strategyName(p.opt), Root: root, audit: p.opt.Audit, opt: p.opt}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal plan inconsistency: %w", err)
	}
	if err := p.checkFeasible(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// partitionOne is PartitionCtx's single search: one option set, one
// planner, trimming the cache (opt.Cache) to its bound afterwards. rs,
// when set, collects the search's stats.
func partitionOne(ctx context.Context, net *dnn.Network, tree *hardware.Tree, opt Options, rs *replanStats) (*Plan, error) {
	p, err := newPlanner(ctx, net, opt)
	if err != nil {
		return nil, err
	}
	p.rs = rs
	defer p.release()
	return p.plan(tree)
}

// strategyName summarizes options for reporting.
func strategyName(opt Options) string {
	return fmt.Sprintf("types=%d objective=%v ratio=%v linearize=%v fixed=%v",
		len(opt.Types), opt.Objective, opt.Ratio, opt.Linearize, opt.Fixed != nil)
}

// partitionNode handles one hierarchy node with the given effective dims,
// consulting the subproblem memo first; see lookup and solve.
func (p *planner) partitionNode(node *hardware.Tree, dims []tensor.LayerDims) (*PlanNode, error) {
	return p.partitionKeyed(node, dims, p.subproblemKey(node, dims))
}

// partitionKeyed is partitionNode for a subproblem already keyed.
func (p *planner) partitionKeyed(node *hardware.Tree, dims []tensor.LayerDims, key subKey) (*PlanNode, error) {
	if err := p.checkCtx(); err != nil {
		return nil, err
	}
	if n, ok := p.lookup(node, key); ok {
		return n, nil
	}
	return p.solve(node, dims, key)
}

// partitionChild handles the child node of a split at (dims, types,
// ratio), whose subproblem key (childKey) the caller already has: it
// materializes the child's scaled dims only on a memo miss, and only for
// as long as the miss takes to solve.
func (p *planner) partitionChild(node *hardware.Tree, dims []tensor.LayerDims, types []cost.Type, ratio float64, key subKey) (*PlanNode, error) {
	if err := p.checkCtx(); err != nil {
		return nil, err
	}
	if n, ok := p.lookup(node, key); ok {
		return n, nil
	}
	return p.solve(node, ScaleUnitDims(p.units, dims, types, ratio), key)
}

// lookup serves a subproblem from the memo. A hit links the stored node
// itself — solved nodes are read-only, position-free (neither depth nor
// dims is stored), and shared between every plan and parent that
// reaches them, at any depth. On a cached search, a hit on an entry
// another search stamped (the entry's previous epoch differs) is a
// cross-run cache hit.
func (p *planner) lookup(node *hardware.Tree, key subKey) (*PlanNode, bool) {
	cached, prev, ok := p.memo.get(memoKey{sub: key}, p.epoch)
	if !ok {
		return nil, false
	}
	provenance := ProvenanceMemoHit
	if p.cache != nil && prev != p.epoch {
		p.cache.hits.Add(1)
		obsCacheHits.Inc()
		provenance = ProvenanceSharedCacheHit
	} else {
		obsMemoHits.Inc()
	}
	p.noteHit()
	p.auditHit(node, key, provenance)
	return cached, true
}

// solve answers a memo miss and stores the solution. The stored node is
// read-only from here on: later hits, in this search or (through the
// SharedCache) in others, link it rather than copy it.
func (p *planner) solve(node *hardware.Tree, dims []tensor.LayerDims, key subKey) (*PlanNode, error) {
	n, err := p.computeNode(node, dims, key)
	if err != nil {
		// Errors are not cached: they are rare, cheap to rediscover, and
		// usually carry tree-specific context (degenerate specs).
		return nil, err
	}
	p.memo.put(memoKey{sub: key}, n, p.epoch)
	return n, nil
}

// computeNode solves one hierarchy node from scratch; key is its
// subproblem key, for the audit record.
func (p *planner) computeNode(node *hardware.Tree, dims []tensor.LayerDims, key subKey) (*PlanNode, error) {
	obsSubproblems.Inc()
	if p.rs != nil {
		p.rs.expanded.Add(1)
	}
	if p.cache != nil {
		p.cache.misses.Add(1)
		obsCacheMisses.Inc()
	}
	if obs.TracingCtx(p.ctx) {
		// Span names render a Sprintf; the TracingCtx guard keeps the
		// disabled path free of it (the zero Span from StartSpanCtx would be
		// inert, but the name string would still have been built).
		sp := obs.StartSpanCtx(p.ctx, "planner", fmt.Sprintf("level%d %s", node.Level, node.Group.String()))
		defer sp.End()
	}
	if node.IsLeaf() {
		n, err := leafNode(node, p.units, dims, p.opt)
		if err != nil {
			return nil, err
		}
		p.auditCompute(node, dims, key, n, nil)
		return n, nil
	}

	sideI := Side{Compute: node.Left.Group.ComputeDensity(), Net: p.opt.Topology.BisectionBandwidth(node.Left.Group)}
	sideJ := Side{Compute: node.Right.Group.ComputeDensity(), Net: p.opt.Topology.BisectionBandwidth(node.Right.Group)}
	if err := checkSides(node.Level, sideI, sideJ); err != nil {
		return nil, err
	}
	n, err := p.solveSplit(node, dims, sideI, sideJ, 0)
	if err != nil {
		return nil, err
	}
	var mem *AuditMemory
	if p.opt.MemoryLimit != MemoryOff {
		n, mem, err = p.constrainSplit(node, dims, sideI, sideJ, n)
		if err != nil {
			return nil, err
		}
	}
	p.auditCompute(node, dims, key, n, mem)
	return n, nil
}

// solveSplit runs the standard type/ratio alternation at one split and
// recurses into both children. memLambda > 0 folds the residency-pressure
// penalty into the DP unit costs (memlimit.go's λ ladder); λ = 0 is the
// exact unconstrained search. Reported costs (Eval) never include the
// penalty — it steers decisions only.
func (p *planner) solveSplit(node *hardware.Tree, dims []tensor.LayerDims, sideI, sideJ Side, memLambda float64) (*PlanNode, error) {
	types, alpha, ev, err := p.decideSplit(node, dims, sideI, sideJ, memLambda)
	if err != nil {
		return nil, err
	}
	return p.assembleSplit(node, dims, sideI, sideJ, types, alpha, ev)
}

// maxRatioIters bounds the alternation between type search and ratio
// solving at one split (the two are mutually dependent: Eq. 10 needs the
// partitioning p, Eq. 9 needs α).
const maxRatioIters = 4

// decideSplit is solveSplit's alternation on a pooled level context,
// which goes back to the pool before the caller recurses: runDP returns
// a freshly allocated types slice, so nothing after it reads the context.
func (p *planner) decideSplit(node *hardware.Tree, dims []tensor.LayerDims, sideI, sideJ Side, memLambda float64) ([]cost.Type, float64, LevelEval, error) {
	ctx := p.level(dims, sideI, sideJ)
	defer p.levels.Put(ctx)
	if memLambda > 0 {
		ctx.memLambda = memLambda
		ctx.capI = float64(node.Left.Identity().HBMBytes)
		ctx.capJ = float64(node.Right.Identity().HBMBytes)
	}

	// Initial ratio: equal, or compute-proportional for the flexible mode.
	switch p.opt.Ratio {
	case RatioEqual:
		ctx.alpha = 0.5
	case RatioFlexible:
		ctx.alpha = cost.ClampRatio(ctx.sideI.Compute / (ctx.sideI.Compute + ctx.sideJ.Compute))
	}

	// Alternate type search (Eq. 9) and ratio balance (Eq. 10).
	var types []cost.Type
	search := ctx.runDP
	if p.opt.Exhaustive {
		search = ctx.runExhaustive
	}
	for iter := 0; iter < maxRatioIters; iter++ {
		if err := p.checkCtx(); err != nil {
			return nil, 0, LevelEval{}, err
		}
		newTypes, _, dpErr := search()
		if dpErr != nil {
			return nil, 0, LevelEval{}, dpErr
		}
		stable := types != nil && equalTypes(types, newTypes)
		types = newTypes
		if p.opt.Ratio == RatioEqual {
			break
		}
		newAlpha, ratioErr := ctx.solveRatio(types)
		if ratioErr != nil {
			return nil, 0, LevelEval{}, ratioErr
		}
		if stable && math.Abs(newAlpha-ctx.alpha) < 1e-6 {
			ctx.alpha = newAlpha
			break
		}
		ctx.alpha = newAlpha
	}
	return types, ctx.alpha, ctx.evalLevel(types), nil
}

// buildSplit assembles one split for a fixed (types, alpha) candidate —
// no search, just the true-cost evaluation and the child recursion. The
// constrained ladder uses it for candidates whose decisions were chosen
// outside the alternation loop.
func (p *planner) buildSplit(node *hardware.Tree, dims []tensor.LayerDims, sideI, sideJ Side, types []cost.Type, alpha float64) (*PlanNode, error) {
	return p.assembleSplit(node, dims, sideI, sideJ, types, alpha, p.evalSplit(dims, sideI, sideJ, types, alpha))
}

// evalSplit prices fixed (types, alpha) decisions at one split on a
// pooled level context.
func (p *planner) evalSplit(dims []tensor.LayerDims, sideI, sideJ Side, types []cost.Type, alpha float64) LevelEval {
	ctx := p.level(dims, sideI, sideJ)
	defer p.levels.Put(ctx)
	ctx.alpha = alpha
	return ctx.evalLevel(types)
}

// assembleSplit recurses into both children of a priced split and links
// the node. No level context is held across the recursion: the split's
// decisions are already in (types, alpha, ev).
func (p *planner) assembleSplit(node *hardware.Tree, dims []tensor.LayerDims, sideI, sideJ Side, types []cost.Type, alpha float64, ev LevelEval) (*PlanNode, error) {
	left, right, err := p.partitionChildren(node, dims, types, alpha)
	if err != nil {
		return nil, err
	}
	return &PlanNode{
		GroupDesc: node.Group.String(),
		Alpha:     alpha,
		Types:     types,
		Eval:      ev,
		SideI:     sideI,
		SideJ:     sideJ,
		Left:      left,
		Right:     right,
	}, nil
}

// partitionChildren recurses into both children of a split, forking the
// right child onto a pooled goroutine when a worker slot is free and
// falling back to the plain serial recursion otherwise. Both child
// subproblems are pure functions of (subtree, dims), so the fork changes
// wall-clock only, never results; on a double failure the left child's
// error wins so error reporting matches the serial order.
//
// Children on identical hardware (the halves of a homogeneous split) are
// never forked. At α = 0.5 they are one subproblem; at a ratio a rounding
// step off 0.5 their dims differ only where an odd extent rounds up on
// one side and down on the other, and their own children meet again one
// level down. Solving left then right makes the right child and every
// such cousin an ordinary memo hit, exactly as in a serial search,
// instead of a second worker solving it again.
func (p *planner) partitionChildren(node *hardware.Tree, dims []tensor.LayerDims, types []cost.Type, alpha float64) (left, right *PlanNode, err error) {
	lkey := p.childKey(node.Left, dims, types, alpha)
	rkey := p.childKey(node.Right, dims, types, 1-alpha)
	if node.Left.Identity().Digest != node.Right.Identity().Digest && p.sem.TryAcquire() {
		obsForks.Inc()
		var wg sync.WaitGroup
		var rerr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.sem.Release()
			right, rerr = p.partitionChild(node.Right, dims, types, 1-alpha, rkey)
		}()
		var lerr error
		left, lerr = p.partitionChild(node.Left, dims, types, alpha, lkey)
		wg.Wait()
		if lerr != nil {
			return nil, nil, lerr
		}
		if rerr != nil {
			return nil, nil, rerr
		}
		return left, right, nil
	}
	left, err = p.partitionChild(node.Left, dims, types, alpha, lkey)
	if err != nil {
		return nil, nil, err
	}
	right, err = p.partitionChild(node.Right, dims, types, 1-alpha, rkey)
	if err != nil {
		return nil, nil, err
	}
	return left, right, nil
}

// ScaleUnitDims returns the effective per-unit dims of one child of a
// split at dims under the split's types, where ratio is the child's share
// (a PlanNode's Alpha for the left child, 1 - Alpha for the right): each
// unit's partitioned dimension (Table 3) is scaled by ratio. Virtual
// junction units represent an identity over one tensor, so a channel
// partition (Type-II or Type-III) scales both Di and Do to keep the
// identity consistent. Plan nodes store no dims; a reader walking a plan
// from its root, whose dims are the units' own, derives every node's dims
// with this function, exactly as the search did.
func ScaleUnitDims(units []dnn.WeightedLayer, dims []tensor.LayerDims, types []cost.Type, ratio float64) []tensor.LayerDims {
	out := make([]tensor.LayerDims, len(dims))
	for i, d := range dims {
		out[i] = scaleUnit(units[i].Virtual, d, types[i], ratio)
	}
	return out
}

// scaleUnit scales one unit's dims for a child of a split under type t;
// ScaleUnitDims and childKey share it, so a key hashed on the fly always
// names the dims a miss materializes.
func scaleUnit(virtual bool, d tensor.LayerDims, t cost.Type, ratio float64) tensor.LayerDims {
	if virtual && t != cost.TypeI {
		return d.Scale(tensor.DimDi, ratio).Scale(tensor.DimDo, ratio)
	}
	return d.Scale(t.Dim(), ratio)
}

// leafNode models an unsplit group executing its final shard: computation
// time over the group's aggregate density, HBM traffic time (each training
// phase streams its operand and result tensors once), and — when the group
// still contains more than one accelerator because the hierarchy was capped
// at a level budget — the cost of the default scheme inside the group:
// plain data parallelism, i.e. a Type-I gradient synchronization at every
// remaining implicit sub-level. Without this fallback a shallow hierarchy
// would get intra-group aggregation for free and the hierarchy-level sweep
// (Figure 8) would be meaningless.
func leafNode(node *hardware.Tree, units []dnn.WeightedLayer, dims []tensor.LayerDims, opt Options) (*PlanNode, error) {
	for _, r := range [...]struct {
		name string
		v    float64
	}{{"compute density", node.Group.ComputeDensity()}, {"HBM bandwidth", node.Group.MemBandwidth()}} {
		if !(r.v > 0) || math.IsInf(r.v, 0) {
			return nil, &DegenerateHardwareError{Level: node.Level, Detail: fmt.Sprintf("leaf %s = %g", r.name, r.v)}
		}
	}
	var flops float64
	var memBytes float64
	var weightBytes float64
	var weightElems int64
	for i, u := range units {
		if u.Virtual {
			continue
		}
		d := dims[i]
		perPhase := cost.PhaseStreamBytes(d)
		if opt.Mode == ModeInference {
			flops += float64(tensor.InferenceFLOPs(d))
			memBytes += perPhase // forward only
		} else {
			flops += float64(cost.ComputeFLOPs(d))
			memBytes += 3 * perPhase // forward, backward, gradient
		}
		weightBytes += float64(d.AW()) * tensor.BytesPerElement
		weightElems += d.AW()
	}
	if opt.Mode != ModeInference {
		// Weight-update phase (Section 2.1): arithmetic and HBM traffic of
		// the configured optimizer over this leaf's kernel shards.
		flops += float64(opt.Optimizer.UpdateFLOPs(weightElems))
		memBytes += float64(opt.Optimizer.UpdateMemBytes(weightElems))
	}
	// Resident footprint: kernels and gradients, retained activations and
	// one error tensor per layer, plus optimizer state (residencyAtDims
	// keeps this accounting shared with the constrained search's floors).
	residency := residencyAtDims(units, dims, opt)
	if opt.Mode == ModeInference {
		// No gradient synchronization exists in inference; the implicit
		// data-parallel fallback costs nothing.
		weightBytes = 0
	}
	fallback, err := leafFallbackCommTime(node.Group, weightBytes, opt.Topology)
	if err != nil {
		return nil, err
	}
	return &PlanNode{
		GroupDesc:          node.Group.String(),
		LeafComputeTime:    flops / node.Group.ComputeDensity(),
		LeafMemTime:        memBytes / node.Group.MemBandwidth(),
		LeafCommTime:       fallback,
		LeafResidencyBytes: residency,
		LeafHBMBytes:       node.Group.HBMBytes(),
	}, nil
}

// leafFallbackCommTime accumulates the Type-I partial-sum exchange cost of
// the implicit data-parallel sub-levels inside an unsplit leaf group. The
// kernel tensors are replicated under Type-I, so every sub-level exchanges
// the full weightBytes between its two halves, at the halves' bandwidth.
func leafFallbackCommTime(g *hardware.Group, weightBytes float64, topo hardware.Topology) (float64, error) {
	if g.Size() < 2 {
		return 0, nil
	}
	l, r, err := g.Bisect()
	if err != nil {
		return 0, err
	}
	level := weightBytes / topo.BisectionBandwidth(&l)
	if t := weightBytes / topo.BisectionBandwidth(&r); t > level {
		level = t
	}
	sub, err := leafFallbackCommTime(&l, weightBytes, topo)
	if err != nil {
		return 0, err
	}
	if r.Size() > l.Size() {
		// The larger half dominates the recursive cost.
		if sub2, err2 := leafFallbackCommTime(&r, weightBytes, topo); err2 != nil {
			return 0, err2
		} else if sub2 > sub {
			sub = sub2
		}
	}
	return level + sub, nil
}

func equalTypes(a, b []cost.Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
