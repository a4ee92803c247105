package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/obs"
	"accpar/internal/tensor"
)

// planner carries the per-call state of one hierarchical partitioning:
// the network, its root dims, the options, the subproblem memo and the
// search shape it solves splits with. A search, or one pass of a replan,
// recurses on the goroutine that runs it. A planner may be reused across
// several trees of the same network and options — ReplanCtx does exactly
// that, so subtrees untouched by a degradation are solved once.
type planner struct {
	*searchShape
	net *dnn.Network
	// rootDims are the network's unscaled per-unit extents, the extents
	// of every plan root.
	rootDims []extents
	opt      Options
	memo     *planMemo
	// cache is the cross-run cache (Options.Cache) whose memo this
	// planner searches on; nil when the planner has a private memo.
	cache *SharedCache
	// ctx aborts the search; done caches its Done channel so the
	// per-subproblem cancellation probe (checkCtx) is one nil comparison
	// when no context was supplied. deadline is ctx's deadline, zero when
	// it has none.
	ctx      context.Context
	done     <-chan struct{}
	deadline time.Time
	// epoch and rs are per-call bookkeeping. epoch stamps memo entries:
	// newPlanner takes it from an attached cache (the eviction clock); it
	// is zero for an uncached search. rs, set by ReplanCtx and
	// PartitionStatsCtx, collects the call's hit, expansion and eviction
	// counts.
	epoch int64
	rs    *replanStats
}

// searchShape is the part of a search's state fixed by its fingerprint
// (searchFingerprint): the network's units and their constants
// (unitConst: virtual, feature-map areas, kernel window), the segment
// index the search sees (flattened under Linearize) and its regions that
// repeat the one before them (markRepeats), the edges of the
// true structure that plans are priced on, a pool of prepared level
// contexts (level.go), so a split reuses DP scratch and coefficient
// slices instead of allocating them, and a pool of child-extents buffers
// (getDims), so a split's children are scaled without allocating, and
// the strategy name every plan of the shape reports. A
// SharedCache keeps one shape per fingerprint beside its memo and hands
// it to every search on that memo; an uncached planner builds a private
// one.
//
// Networks that differ only in batch size share a fingerprint, so a
// shape may be built from another call's network. The fingerprint covers
// every unit's constants, so those hold for every network the shape
// serves; the extents a split changes (B, D_i, D_o) each call supplies
// as its own rootDims, and the subproblem keys carry them. The shape
// keeps its builder's extents only to lend them, read-only, to calls
// whose extents are equal (rootDimsOf).
type searchShape struct {
	units    []dnn.WeightedLayer
	consts   []unitConst
	planSegs []segRef
	repeats  []bool
	edges    [][2]int
	levels   sync.Pool
	dims     sync.Pool
	rootDims []extents
	strategy string
}

// newSearchShape builds the shape of a search over net under opt.
func newSearchShape(net *dnn.Network, opt Options) *searchShape {
	s := &searchShape{units: net.Units(), planSegs: indexSegments(net), edges: net.Edges(), strategy: strategyName(opt)}
	s.consts = make([]unitConst, len(s.units))
	s.rootDims = make([]extents, len(s.units))
	for i := range s.units {
		s.consts[i] = constOf(&s.units[i])
		s.rootDims[i] = extentsOf(s.units[i].Dims)
	}
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
	probe := levelCtx{units: s.units, opt: opt}
	s.repeats = markRepeats(s.planSegs, s.consts, probe.allowedTypes)
	s.levels.New = func() any { return newLevelCtx(s, opt) }
	s.dims.New = func() any {
		buf := make([]extents, len(s.units))
		return &buf
	}
	return s
}

// getDims takes a per-unit extents buffer from the shape's pool. A split
// scales a child's extents into one (childKey, scaleInto) and solves the
// child from it; the caller puts it back once the child is solved.
// Nothing a plan node keeps points into a buffer: plan nodes store no
// dims, and a level context reads a buffer only while it serves a split
// of the child, which ends before the child is solved. Pooling on the
// shape keeps concurrent searches on one SharedCache on buffers of their
// own.
func (s *searchShape) getDims() *[]extents {
	return s.dims.Get().(*[]extents)
}

// noteHit records a replan hit when the call collects stats; other
// searches skip the replan counters.
func (p *planner) noteHit() {
	if p.rs != nil {
		p.rs.hits++
	}
}

// searchNet is the network of one partitioning call, shared by the
// planners of its option sets (a portfolio) or passes (a replan): it
// validates the network once, and computes the network's digest
// (networkDigest) once, when the first of them attaches to a cache, so
// an uncached search never hashes the network. It lives for one call,
// so nothing retains the digest. rs, when set, collects the call's
// stats, and counts both.
type searchNet struct {
	net             *dnn.Network
	rs              *replanStats
	checked, hashed bool
	err             error
	digest          [16]byte
}

// validate returns the network's Validate error, checking it once.
func (n *searchNet) validate() error {
	if !n.checked {
		n.checked, n.err = true, n.net.Validate()
		if n.rs != nil {
			n.rs.validations++
		}
	}
	return n.err
}

// networkDigest returns the network's digest, hashing it once.
func (n *searchNet) networkDigest() *[16]byte {
	if !n.hashed {
		n.hashed, n.digest = true, networkDigest(n.net)
		if n.rs != nil {
			n.rs.digests++
		}
	}
	return &n.digest
}

// planner validates the options and the network and builds the per-call
// search state, collecting stats into n.rs. With opt.Cache set the
// planner searches on the cache's memo and shape for its search
// fingerprint under a fresh epoch, and the caller ends the search with
// release; otherwise it gets a private memo and shape.
func (n *searchNet) planner(ctx context.Context, opt Options) (*planner, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := n.validate(); err != nil {
		return nil, err
	}
	net := n.net
	p := &planner{net: net, opt: opt, ctx: ctx, rs: n.rs}
	if opt.Cache != nil {
		p.cache = opt.Cache
		p.memo, p.searchShape, p.epoch = opt.Cache.attach(n, opt)
	} else {
		p.memo, p.searchShape = &planMemo{}, newSearchShape(net, opt)
	}
	p.rootDims = p.rootDimsOf(net)
	if ctx != nil {
		p.done = ctx.Done()
		p.deadline, _ = ctx.Deadline()
	}
	return p, nil
}

// rootDimsOf returns net's per-unit extents, the extents of every plan
// root: the shape's own slice when they equal its builder's (every search
// of a sweep, and a server's repeated requests), a fresh one otherwise.
func (s *searchShape) rootDimsOf(net *dnn.Network) []extents {
	i, same := 0, true
	eachUnit(net, func(u *dnn.WeightedLayer) {
		same = same && extentsOf(u.Dims) == s.rootDims[i]
		i++
	})
	if same {
		return s.rootDims
	}
	dims := make([]extents, 0, len(s.units))
	eachUnit(net, func(u *dnn.WeightedLayer) { dims = append(dims, extentsOf(u.Dims)) })
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
		p.rs.invalidated += n
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
	plan := &Plan{Network: p.net, Strategy: p.strategy, Root: root, audit: p.opt.Audit, opt: p.opt}
	if err := plan.Validate(); err != nil {
		return nil, fmt.Errorf("core: internal plan inconsistency: %w", err)
	}
	if err := p.checkFeasible(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// partitionOne is PartitionCtx's single search: one option set, one
// planner, trimming the cache (opt.Cache) to its bound afterwards. net.rs,
// when set, collects the search's stats.
func partitionOne(ctx context.Context, net *searchNet, tree *hardware.Tree, opt Options) (*Plan, error) {
	p, err := net.planner(ctx, opt)
	if err != nil {
		return nil, err
	}
	defer p.release()
	return p.plan(tree)
}

// strategyName summarizes options for reporting. It reads only
// fingerprinted options, so a search shape names its plans once.
func strategyName(opt Options) string {
	return fmt.Sprintf("types=%d objective=%v ratio=%v linearize=%v fixed=%v",
		len(opt.Types), opt.Objective, opt.Ratio, opt.Linearize, opt.Fixed != nil)
}

// partitionNode handles one hierarchy node with the given effective dims,
// consulting the subproblem memo first; see lookup and solve.
func (p *planner) partitionNode(node *hardware.Tree, dims []extents) (*PlanNode, error) {
	return p.partitionKeyed(node, dims, p.subproblemKey(node, dims))
}

// partitionKeyed is partitionNode for a subproblem already keyed.
func (p *planner) partitionKeyed(node *hardware.Tree, dims []extents, key subKey) (*PlanNode, error) {
	if err := p.checkCtx(); err != nil {
		return nil, err
	}
	if n, ok := p.lookup(node, key); ok {
		return n, nil
	}
	return p.solve(node, dims, key)
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
func (p *planner) solve(node *hardware.Tree, dims []extents, key subKey) (*PlanNode, error) {
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
func (p *planner) computeNode(node *hardware.Tree, dims []extents, key subKey) (*PlanNode, error) {
	obsSubproblems.Inc()
	if p.rs != nil {
		p.rs.expanded++
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
		n, err := leafNode(node, p.consts, dims, p.opt)
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
func (p *planner) solveSplit(node *hardware.Tree, dims []extents, sideI, sideJ Side, memLambda float64) (*PlanNode, error) {
	types, alpha, ev, err := p.decideSplit(node, dims, sideI, sideJ, memLambda)
	if err != nil {
		return nil, err
	}
	return p.assembleSplit(node, dims, sideI, sideJ, types, alpha, ev)
}

// maxRatioIters bounds the alternation between type search and ratio
// solving at one split (the two are mutually dependent: Eq. 10 needs the
// partitioning p, Eq. 9 needs α): at most this many DP runs, each
// followed by at most one bisection.
const maxRatioIters = 4

// decideSplit is solveSplit's alternation on a pooled level context,
// which goes back to the pool before the caller recurses: runDP returns
// a freshly allocated types slice, so nothing after it reads the context.
//
// The alternation is a fixed-point iteration. At one split runDP is a
// pure function of α and solveRatio a pure function of the types, so the
// loop stops as soon as either input repeats: a bisection that returns
// the α its types were solved at (the next DP would return the same
// types), or a DP that returns the types α was balanced for (the next
// bisection would return the same α). Either way the result is the one a
// further round would confirm, bit for bit.
func (p *planner) decideSplit(node *hardware.Tree, dims []extents, sideI, sideJ Side, memLambda float64) ([]cost.Type, float64, LevelEval, error) {
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
	for iter := 1; ; iter++ {
		if err := p.checkCtx(); err != nil {
			return nil, 0, LevelEval{}, err
		}
		if p.rs != nil {
			p.rs.dpRuns++
		}
		newTypes, _, err := ctx.runDP()
		if err != nil {
			return nil, 0, LevelEval{}, err
		}
		if types != nil && equalTypes(types, newTypes) {
			break // ctx.alpha is already solveRatio(types)
		}
		types = newTypes
		if p.opt.Ratio == RatioEqual {
			break
		}
		alpha, err := ctx.solveRatio(types)
		if err != nil {
			return nil, 0, LevelEval{}, err
		}
		stable := alpha == ctx.alpha // α is never NaN or zero: == compares bits
		ctx.alpha = alpha
		if stable || iter == maxRatioIters {
			break
		}
	}
	return types, ctx.alpha, ctx.evalLevel(types), nil
}

// buildSplit assembles one split for a fixed (types, alpha) candidate —
// no search, just the true-cost evaluation and the child recursion. The
// constrained ladder uses it for candidates whose decisions were chosen
// outside the alternation loop.
func (p *planner) buildSplit(node *hardware.Tree, dims []extents, sideI, sideJ Side, types []cost.Type, alpha float64) (*PlanNode, error) {
	return p.assembleSplit(node, dims, sideI, sideJ, types, alpha, p.evalSplit(dims, sideI, sideJ, types, alpha))
}

// evalSplit prices fixed (types, alpha) decisions at one split on a
// pooled level context.
func (p *planner) evalSplit(dims []extents, sideI, sideJ Side, types []cost.Type, alpha float64) LevelEval {
	ctx := p.level(dims, sideI, sideJ)
	defer p.levels.Put(ctx)
	ctx.alpha = alpha
	return ctx.evalLevel(types)
}

// assembleSplit recurses into both children of a priced split and links
// the node. No level context is held across the recursion: the split's
// decisions are already in (types, alpha, ev).
func (p *planner) assembleSplit(node *hardware.Tree, dims []extents, sideI, sideJ Side, types []cost.Type, alpha float64, ev LevelEval) (*PlanNode, error) {
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

// partitionChildren recurses into both children of a split, left then
// right, on the calling goroutine. Both children take turns on one pooled
// dims buffer: each is scaled into it as it is keyed (childKey), and a
// memo miss solves from it. Solving them in order also makes the right
// child of a homogeneous split (identical hardware at α = 0.5), and
// every cousin that meets again one level down, an ordinary memo hit.
//
// The right child of such a split mirrors the left: at α = 0.5 exactly
// both scale every extent by the same 0.5, and subtrees of one digest
// key alike, so it takes the left child's key and extents (the buffer
// still holds them: a solve only reads its dims) without running
// childKey again. Its lookup, epoch stamp, counters and audit record
// are the ones any child gets.
func (p *planner) partitionChildren(node *hardware.Tree, dims []extents, types []cost.Type, alpha float64) (left, right *PlanNode, err error) {
	buf := p.getDims()
	defer p.dims.Put(buf)
	key := p.childKey(*buf, node.Left, dims, types, alpha)
	if left, err = p.partitionKeyed(node.Left, *buf, key); err != nil {
		return nil, nil, err
	}
	if alpha != 0.5 || node.Left.Identity().Digest != node.Right.Identity().Digest {
		key = p.childKey(*buf, node.Right, dims, types, 1-alpha)
	}
	if right, err = p.partitionKeyed(node.Right, *buf, key); err != nil {
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
// with this function, exactly as the search derived their extents.
func ScaleUnitDims(units []dnn.WeightedLayer, dims []tensor.LayerDims, types []cost.Type, ratio float64) []tensor.LayerDims {
	out := make([]tensor.LayerDims, len(dims))
	for i, d := range dims {
		e := extentsOf(d).scale(units[i].Virtual, types[i], ratio)
		d.B, d.Di, d.Do = int(e.B), int(e.Di), int(e.Do)
		out[i] = d
	}
	return out
}

// scaleInto writes the extents of one child of a split at (dims, types,
// ratio) into dst, a buffer of len(dims) units; childKey scales the same
// way as it hashes.
func (s *searchShape) scaleInto(dst, dims []extents, types []cost.Type, ratio float64) {
	for i := range dims {
		dst[i] = dims[i].scale(s.consts[i].virtual, types[i], ratio)
	}
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
func leafNode(node *hardware.Tree, consts []unitConst, dims []extents, opt Options) (*PlanNode, error) {
	for _, r := range [...]struct {
		name string
		v    float64
	}{{"compute density", node.Group.ComputeDensity()}, {"HBM bandwidth", node.Group.MemBandwidth()}} {
		if !(r.v > 0) || math.IsInf(r.v, 0) {
			return nil, &DegenerateHardwareError{Level: node.Level, Detail: fmt.Sprintf("leaf %s = %g", r.name, r.v)}
		}
	}
	inference := opt.Mode == ModeInference
	var flops float64
	var memBytes float64
	var weightBytes float64
	var weightElems int64
	for i := range consts {
		k := &consts[i]
		if k.virtual {
			continue
		}
		s := k.sizes(dims[i], inference)
		// Each phase streams two operands in and its result out, and
		// every phase touches tensors of the same three sizes
		// (cost.PhaseStreamBytes).
		perPhase := float64(s.af+s.aw+s.afNext) * tensor.BytesPerElement
		flops += float64(s.flops)
		if inference {
			memBytes += perPhase // forward only
		} else {
			memBytes += 3 * perPhase // forward, backward, gradient
		}
		weightBytes += float64(s.aw) * tensor.BytesPerElement
		weightElems += s.aw
	}
	if !inference {
		// Weight-update phase (Section 2.1): arithmetic and HBM traffic of
		// the configured optimizer over this leaf's kernel shards.
		flops += float64(opt.Optimizer.UpdateFLOPs(weightElems))
		memBytes += float64(opt.Optimizer.UpdateMemBytes(weightElems))
	}
	// Resident footprint: kernels and gradients, retained activations and
	// one error tensor per layer, plus optimizer state (residencyAtDims
	// keeps this accounting shared with the constrained search's floors).
	residency := residencyAtDims(consts, dims, opt)
	if inference {
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
	level := weightBytes / topo.BisectionBandwidth(l)
	if t := weightBytes / topo.BisectionBandwidth(r); t > level {
		level = t
	}
	sub, err := leafFallbackCommTime(l, weightBytes, topo)
	if err != nil {
		return 0, err
	}
	if r.Size() > l.Size() {
		// The larger half dominates the recursive cost.
		if sub2, err2 := leafFallbackCommTime(r, weightBytes, topo); err2 != nil {
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
