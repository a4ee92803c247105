package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/obs"
	"accpar/internal/parallel"
	"accpar/internal/tensor"
)

// This file implements incremental replanning: a ReplanEngine retains
// one planner's dependency-tracked subproblem memo across fault events,
// so responding to a degradation re-solves only the subproblems the
// fault actually touched. The memo is the engine's only store: a
// recurrent tree is one root-subproblem hit, and the stale pass
// memoizes its re-costings in the same memo under tagged keys (see
// staleNodeInc). Everything is content-addressed, which splits
// correctness from retention cleanly:
//
//   - correctness: a retained entry can only be hit by a subproblem with
//     byte-identical inputs, so incremental replans are byte-identical
//     to a cold full search on the degraded spec, no matter what the
//     retention policy kept or dropped — including after aborted calls,
//     which never publish partial entries;
//   - retention: each entry's recorded dependency set (the spec
//     fingerprints of its hardware subtree) is tested when degraded
//     hardware leaves the recent working set, invalidating exactly the
//     dependent subtree of subproblems; an epoch backstop bounds what
//     reachable hardware can accumulate. The working set records each
//     tree by digest, spec set and root key only — the digests are cached
//     on the trees themselves (hardware.Tree.Identity) — so retention
//     costs follow the trees that enter and leave, never the trees kept.

const (
	// defaultRecentTrees bounds the hardware trees (by content digest) an
	// engine keeps warm: the reachable-spec set for dependency
	// invalidation follows this working set.
	defaultRecentTrees = 32
	// defaultMemoCap is the entry-count watermark above which the epoch
	// backstop prunes memo entries not served recently.
	defaultMemoCap = 1 << 15
	// epochKeepWindow is how many engine calls back the backstop keeps.
	epochKeepWindow = 8
)

// ReplanStats reports what one incremental replanning call did: how
// much retained state it served, how much it invalidated, and how much
// it genuinely re-solved.
type ReplanStats struct {
	// IncrementalHits counts subproblems served from retained state: hits
	// on the dependency-tracked memo (a recurrent tree's root, a memoized
	// stale re-costing, or any untouched subtree).
	IncrementalHits int64 `json:"incremental_hits"`
	// Invalidated counts retained entries dropped before this call by the
	// dependency walk (hardware left the working set) or the epoch
	// backstop.
	Invalidated int64 `json:"invalidated"`
	// Expanded counts subproblems solved from scratch.
	Expanded int64 `json:"expanded"`
	// StaleReused counts stale-pass subtrees linked directly from the
	// pristine plan because the fault did not touch their hardware.
	StaleReused int64 `json:"stale_reused"`
	// Seconds is the call's wall-clock duration.
	Seconds float64 `json:"seconds"`
}

// Add accumulates other into s (Seconds sums; portfolio callers report
// the aggregate).
func (s *ReplanStats) Add(other ReplanStats) {
	s.IncrementalHits += other.IncrementalHits
	s.Invalidated += other.Invalidated
	s.Expanded += other.Expanded
	s.StaleReused += other.StaleReused
	s.Seconds += other.Seconds
}

// replanStats is the per-call atomic collector behind ReplanStats;
// concurrent search workers of one call share it.
type replanStats struct {
	hits        atomic.Int64
	expanded    atomic.Int64
	staleReused atomic.Int64
}

func (rs *replanStats) snapshot(invalidated int64, d time.Duration) ReplanStats {
	return ReplanStats{
		IncrementalHits: rs.hits.Load(),
		Invalidated:     invalidated,
		Expanded:        rs.expanded.Load(),
		StaleReused:     rs.staleReused.Load(),
		Seconds:         d.Seconds(),
	}
}

// noteStaleReuse records an untouched-hardware stale-pass reuse.
func (p *planner) noteStaleReuse() {
	if p.rs != nil {
		p.rs.staleReused.Add(1)
		obsReplanHits.Inc()
	}
}

// recentTree is one tree of an engine's working set: its content digest,
// dependency set and root subproblem key. The key is hashed once, on
// admission, so a recurrent tree reaches its root memo entry without
// re-hashing the root dims.
type recentTree struct {
	digest [16]byte
	key    subKey
	specs  []uint64
}

// ReplanEngine retains one search's dependency-tracked state across
// fault events for a fixed (network, options) pair. It is safe for
// concurrent use; every call is byte-identical to the equivalent cold
// search, so the engine affects latency only, never plans.
type ReplanEngine struct {
	mu   sync.Mutex
	base *planner
	// epoch numbers engine calls; memo entries are stamped with the epoch
	// that last served them (the retention backstop's clock).
	epoch atomic.Int64
	// recent is the MRU-first working set of trees that bounds the
	// reachable-spec set for dependency invalidation.
	recent    []recentTree
	recentCap int
	memoCap   int
	// evicted collects the spec fingerprints of trees evicted since the
	// last retention pass; the pass invalidates entries depending on the
	// ones no retained tree still reaches.
	evicted []uint64
}

// NewReplanEngine returns an engine for the network and options. The
// engine's retained memo is its only store: the options' Cache, if set,
// is ignored, so engine work neither reads nor fills a SharedCache.
func NewReplanEngine(net *dnn.Network, opt Options) (*ReplanEngine, error) {
	p, err := newPlanner(nil, net, opt)
	if err != nil {
		return nil, err
	}
	return newEngine(p), nil
}

// newEngine wraps an initialized planner as a fresh engine.
func newEngine(p *planner) *ReplanEngine {
	return &ReplanEngine{base: p, recentCap: defaultRecentTrees, memoCap: defaultMemoCap}
}

// admit moves tree to the front of the recent working set, matching it
// by content digest (servers rebuild trees per request, so a recurrent
// tree is often a new object), and evicts beyond capacity: an evicted
// tree's specs are logged for the next retention pass. Caller holds e.mu.
func (e *ReplanEngine) admit(tree *hardware.Tree) recentTree {
	id := tree.Identity()
	for i, r := range e.recent {
		if r.digest == id.Digest {
			e.toFront(i, r)
			return r
		}
	}
	r := recentTree{digest: id.Digest, key: e.base.subproblemKey(tree, e.base.rootDims), specs: id.Specs}
	e.recent = append(e.recent, recentTree{})
	copy(e.recent[1:], e.recent)
	e.recent[0] = r
	if len(e.recent) > e.recentCap {
		old := e.recent[e.recentCap]
		e.recent[e.recentCap] = recentTree{}
		e.recent = e.recent[:e.recentCap]
		e.evicted = append(e.evicted, old.specs...)
	}
	return r
}

// toFront moves working-set entry i, updated to r, to the front.
func (e *ReplanEngine) toFront(i int, r recentTree) {
	copy(e.recent[1:i+1], e.recent[:i])
	e.recent[0] = r
}

// goneSpecs returns the logged fingerprints of evicted trees that no
// tree of the working set still reaches (nil when there are none) and
// clears the log. Every dependency of an entry stored by a serial call
// was reachable at the previous pass, so these are exactly the
// fingerprints whose dependents must go; an entry a concurrent call
// stores for hardware already evicted is left to the epoch backstop.
func (e *ReplanEngine) goneSpecs() map[uint64]bool {
	if len(e.evicted) == 0 {
		return nil
	}
	gone := make(map[uint64]bool, len(e.evicted))
	for _, fp := range e.evicted {
		gone[fp] = true
	}
	e.evicted = e.evicted[:0]
	for _, r := range e.recent {
		for _, fp := range r.specs {
			delete(gone, fp)
		}
	}
	if len(gone) == 0 {
		return nil
	}
	return gone
}

// maybeGC runs the retention policy and returns how many entries were
// invalidated. The dependency walk drops entries whose hardware left the
// recent working set, and runs only when some spec did leave; the epoch
// backstop bounds entries on reachable hardware whose dims no future
// search will ask for. Caller holds e.mu; invalidation is safe against
// in-flight calls — a dropped entry is re-solved, never wrongly hit.
func (e *ReplanEngine) maybeGC(epoch int64) int64 {
	var removed int64
	if gone := e.goneSpecs(); gone != nil {
		removed += int64(e.base.memo.invalidate(gone))
	}
	if e.base.memo.len() > e.memoCap {
		removed += int64(e.base.memo.evictBefore(epoch - epochKeepWindow))
	}
	if removed > 0 {
		obsReplanInvalidated.Add(removed)
	}
	return removed
}

// PlanCtx partitions one tree through the engine's retained memo: a tree
// already in the working set is one root-subproblem hit; otherwise the
// search runs with every untouched subproblem served from the memo.
// Byte-identical to PartitionCtx with the same (network, options) on the
// same tree.
func (e *ReplanEngine) PlanCtx(ctx context.Context, tree *hardware.Tree) (*Plan, ReplanStats, error) {
	start := time.Now()
	rs := &replanStats{}
	ep := e.epoch.Add(1)
	e.mu.Lock()
	r := e.admit(tree)
	invalidated := e.maybeGC(ep)
	pc := e.base.forCall(ctx, ep, rs)
	e.mu.Unlock()
	plan, err := pc.planKeyed(tree, r.key)
	return plan, rs.snapshot(invalidated, time.Since(start)), err
}

// ReplanCtx is the incremental replanning pipeline: resolve the pristine
// plan (usually a root memo hit), re-cost its decisions on the degraded
// tree (cloning every subtree the fault did not touch and memoizing what
// it did), partition the degraded tree through the retained memo, and
// adopt the better post-fault plan. The report is byte-identical to
// core.ReplanCtx on the same inputs; the engine only changes how much of
// it was re-computed. Aborted calls publish nothing and leave the
// retained state exactly as consistent as before — the next call
// re-solves whatever the aborted one did not finish.
func (e *ReplanEngine) ReplanCtx(ctx context.Context, pristine, degraded *hardware.Tree) (*ReplanReport, ReplanStats, error) {
	start := time.Now()
	rs := &replanStats{}
	ep := e.epoch.Add(1)
	e.mu.Lock()
	pr := e.admit(pristine)
	dr := e.admit(degraded)
	invalidated := e.maybeGC(ep)
	pc := e.base.forCall(ctx, ep, rs)
	e.mu.Unlock()

	faultFree, err := pc.planKeyed(pristine, pr.key)
	if err != nil {
		return nil, rs.snapshot(invalidated, time.Since(start)), err
	}

	// The stale re-costing and the fresh degraded partition are
	// independent given the pristine plan; both consult the retained memo.
	var stale, fresh *Plan
	g := parallel.NewGroup(min(2, parallel.Workers(e.base.opt.Parallelism)))
	g.Go(func() error {
		root, serr := pc.staleNodeInc(degraded, pristine, faultFree.Root, pc.rootDims, dr.key)
		if serr != nil {
			return serr
		}
		stale = &Plan{Network: pc.net, Strategy: faultFree.Strategy + " (stale)", Root: root, opt: pc.opt}
		if serr := stale.Validate(); serr != nil {
			return fmt.Errorf("core: internal stale-plan inconsistency: %w", serr)
		}
		return nil
	})
	g.Go(func() error {
		var ferr error
		fresh, ferr = pc.planKeyed(degraded, dr.key)
		return ferr
	})
	if err := g.Wait(); err != nil {
		return nil, rs.snapshot(invalidated, time.Since(start)), err
	}

	rep := &ReplanReport{
		FaultFree: faultFree,
		Stale:     stale,
		Fresh:     fresh,
		Replanned: fresh,
		Adopted:   fresh.Time() < stale.Time(),
	}
	if !rep.Adopted {
		rep.Replanned = stale
	}
	elapsed := time.Since(start)
	obsReplanTimer.Observe(elapsed)
	rep.Stats = rs.snapshot(invalidated, elapsed)
	obs.Log().Info("core.replan",
		"adopted", rep.Adopted,
		"fault_free_seconds", rep.FaultFree.Time(),
		"stale_seconds", stale.Time(),
		"fresh_seconds", fresh.Time())
	return rep, rep.Stats, nil
}

// staleNodeInc applies one stale decision to one (possibly degraded)
// hierarchy node, mirroring staleNode byte-for-byte with two retained
// shortcuts: a subtree whose hardware digest matches its pristine
// counterpart pristNode (the node old was solved for) is the pristine
// plan verbatim, and every other re-costing is memoized under the memo
// key (degraded subproblem key, pristine subtree digest) — the stale half
// of memoKey, which keeps these entries apart from plain subproblems. key
// is node's subproblem key at dims when the caller already has it (the
// zero key to hash it here).
//
// The memo key is sound by an invariant of the stale walk: at every node
// where the degraded structure still aligns with the plan's, dims are
// exactly the dims the search solved old at, because both come from the
// same ScaleUnitDims chain from the same root dims with the same
// (α, types) decisions (ClampRatio is idempotent on stored ratios). So
// old is this engine's own solution for (pristine subtree, dims) — a pure
// function of the pristine digest and the dims the key already carries —
// and (degraded subtree, dims, pristine subtree) fully addresses the
// re-costing.
func (p *planner) staleNodeInc(node, pristNode *hardware.Tree, old *PlanNode, dims []tensor.LayerDims, key subKey) (*PlanNode, error) {
	if err := p.checkCtx(); err != nil {
		return nil, err
	}
	if old == nil || node.IsLeaf() != old.IsLeaf() {
		// Structure diverged: no stale decision for this subtree. The fresh
		// partition goes through the retained memo, so a subtree already
		// solved for any fresh pass (or a symmetric sibling) is reused.
		return p.partitionNode(node, dims)
	}
	nid, pid := node.Identity(), pristNode.Identity()
	if pid.Digest == nid.Digest {
		// The fault did not touch this subtree's hardware: re-costing the
		// plan's own decisions on the plan's own hardware reproduces the
		// plan, so the stale plan links the pristine subtree itself.
		p.noteStaleReuse()
		return old, nil
	}
	if key == (subKey{}) {
		key = p.subproblemKey(node, dims)
	}
	mk := memoKey{sub: key, stale: pid.Digest}
	if cached, _, ok := p.memo.get(mk, p.epoch); ok {
		p.noteHit()
		return cached, nil
	}
	// The re-costing depends on both subtrees' hardware.
	deps := hardware.MergeSpecs(nid.Specs, pid.Specs)
	if node.IsLeaf() {
		n, err := leafNode(node, p.units, dims, p.opt)
		if err != nil {
			return nil, err
		}
		p.memo.put(mk, n, deps, p.epoch)
		return n, nil
	}
	sideI := Side{Compute: node.Left.Group.ComputeDensity(), Net: p.opt.Topology.BisectionBandwidth(node.Left.Group)}
	sideJ := Side{Compute: node.Right.Group.ComputeDensity(), Net: p.opt.Topology.BisectionBandwidth(node.Right.Group)}
	if err := checkSides(node.Level, sideI, sideJ); err != nil {
		return nil, err
	}
	if len(old.Types) != len(p.units) {
		return nil, fmt.Errorf("core: stale plan has %d types for %d units", len(old.Types), len(p.units))
	}
	alpha := cost.ClampRatio(old.Alpha)
	types := old.Types
	ev := p.evalSplit(dims, sideI, sideJ, types, alpha)

	left, err := p.staleNodeInc(node.Left, pristNode.Left, old.Left, ScaleUnitDims(p.units, dims, types, alpha), subKey{})
	if err != nil {
		return nil, err
	}
	right, err := p.staleNodeInc(node.Right, pristNode.Right, old.Right, ScaleUnitDims(p.units, dims, types, 1-alpha), subKey{})
	if err != nil {
		return nil, err
	}
	n := &PlanNode{
		GroupDesc: node.Group.String(),
		Alpha:     alpha,
		Types:     types,
		Eval:      ev,
		SideI:     sideI,
		SideJ:     sideJ,
		Left:      left,
		Right:     right,
	}
	p.memo.put(mk, n, deps, p.epoch)
	return n, nil
}

// ReplanEngines is a bounded LRU registry of ReplanEngines keyed by
// (network structure, root dims, decision-relevant options), so a
// serving session holds one engine per distinct search it has replanned
// — including one per portfolio variant — without unbounded growth. It
// also interns hardware trees by content (see InternTree), so callers
// that rebuild their array per request reuse one tree, whose content
// identity is already computed.
type ReplanEngines struct {
	mu       sync.Mutex
	capacity int
	m        map[string]*ReplanEngine
	order    []string // MRU-first
	trees    map[string]*hardware.Tree
	treeMRU  []string
}

// treeInternCap bounds the interned trees per registry: enough for a
// pristine fleet plus a working set of recurrent degradations.
const treeInternCap = 64

// NewReplanEngines returns a registry bounded to capacity engines (≤ 0
// selects 16).
func NewReplanEngines(capacity int) *ReplanEngines {
	if capacity <= 0 {
		capacity = 16
	}
	return &ReplanEngines{
		capacity: capacity,
		m:        make(map[string]*ReplanEngine),
		trees:    make(map[string]*hardware.Tree),
	}
}

// InternTree returns a hardware tree for the array, reusing the
// registry's retained tree when one with identical content (same
// ordered spec list, same level budget) exists. Servers rebuild the
// array object on every request; without interning each request pays
// for building a fresh tree and digesting its whole hierarchy
// (O(fleet) hashing, hardware.Tree.Identity) before a single retained
// entry can be consulted. With it, a recurrent request presents a tree
// whose identity is already cached, one O(array) fingerprint away.
// Interning never changes plans — trees with equal content plan
// identically — it only makes the recurrent case cheap.
func (s *ReplanEngines) InternTree(arr *hardware.Array, maxLevels int) (*hardware.Tree, error) {
	key := arrayKey(arr, maxLevels)
	s.mu.Lock()
	if t, ok := s.trees[key]; ok {
		s.treeTouch(key)
		s.mu.Unlock()
		return t, nil
	}
	s.mu.Unlock()
	// Build outside the lock; a racing builder of the same content loses
	// to whichever registered first, keeping the pointer stable.
	t, err := hardware.BuildTree(arr, maxLevels)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.trees[key]; ok {
		s.treeTouch(key)
		return existing, nil
	}
	s.trees[key] = t
	s.treeMRU = append([]string{key}, s.treeMRU...)
	for len(s.treeMRU) > treeInternCap {
		last := s.treeMRU[len(s.treeMRU)-1]
		s.treeMRU = s.treeMRU[:len(s.treeMRU)-1]
		delete(s.trees, last)
	}
	return t, nil
}

func (s *ReplanEngines) treeTouch(key string) {
	for i, k := range s.treeMRU {
		if k == key {
			copy(s.treeMRU[1:i+1], s.treeMRU[:i])
			s.treeMRU[0] = key
			return
		}
	}
}

// arrayKey fingerprints an array's content plus the tree level budget.
func arrayKey(arr *hardware.Array, maxLevels int) string {
	h := fnv.New128a()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wInt(int64(maxLevels))
	wInt(int64(len(arr.Name)))
	h.Write([]byte(arr.Name))
	wInt(int64(len(arr.Accel)))
	for _, s := range arr.Accel {
		wInt(int64(s.Fingerprint()))
	}
	return string(h.Sum(nil))
}

// Engine returns the registry's engine for (net, opt), creating and
// admitting one on first use. Networks are matched by content (structure
// and dims), not pointer, so servers that rebuild the network per
// request keep hitting the same engine. The key needs only the search's
// shape (plannerShape); the engine's memo and level pool are built on a
// miss.
func (s *ReplanEngines) Engine(net *dnn.Network, opt Options) (*ReplanEngine, error) {
	p, err := plannerShape(net, opt)
	if err != nil {
		return nil, err
	}
	key := engineKey(p)
	s.mu.Lock()
	if existing, ok := s.m[key]; ok {
		s.touch(key)
		s.mu.Unlock()
		return existing, nil
	}
	p.init(nil)
	e := newEngine(p)
	s.m[key] = e
	s.order = append([]string{key}, s.order...)
	if len(s.order) > s.capacity {
		last := s.order[len(s.order)-1]
		s.order = s.order[:len(s.order)-1]
		delete(s.m, last)
	}
	s.mu.Unlock()
	return e, nil
}

func (s *ReplanEngines) touch(key string) {
	for i, k := range s.order {
		if k == key {
			copy(s.order[1:i+1], s.order[:i])
			s.order[0] = key
			return
		}
	}
}

// Len returns the resident engine count.
func (s *ReplanEngines) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// engineKey fingerprints everything fixed per engine: the search
// fingerprint (network structure + decision-relevant options) plus the
// root dims, which the search fingerprint deliberately excludes (dims
// travel in subproblem keys there, but an engine plans one network, so
// its admitted root keys are bound to one batch geometry).
func engineKey(p *planner) string {
	h := fnv.New128a()
	fp := searchFingerprint(p.units, p.segs, p.planSegs, p.opt)
	h.Write(fp[:])
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, u := range p.units {
		d := u.Dims
		wInt(int64(d.B))
		wInt(int64(d.Di))
		wInt(int64(d.Do))
		wInt(int64(d.HIn))
		wInt(int64(d.WIn))
		wInt(int64(d.HOut))
		wInt(int64(d.WOut))
		wInt(int64(d.KH))
		wInt(int64(d.KW))
	}
	return string(h.Sum(nil))
}

// PartitionCtx is core.PartitionCtx through the registry's engines: each
// option set plans through its retained engine and bestOf picks the
// winner, so the result is byte-identical to core.PartitionCtx while
// recurrent trees are served from retained memos. The returned stats
// aggregate all variants.
func (s *ReplanEngines) PartitionCtx(ctx context.Context, net *dnn.Network, tree *hardware.Tree, opts ...Options) (*Plan, ReplanStats, error) {
	var total ReplanStats
	if len(opts) == 0 {
		return nil, total, fmt.Errorf("core: PartitionCtx needs at least one option set")
	}
	engines := make([]*ReplanEngine, len(opts))
	for i := range opts {
		e, err := s.Engine(net, opts[i])
		if err != nil {
			return nil, total, err
		}
		engines[i] = e
	}
	stats := make([]ReplanStats, len(opts))
	best, _, err := bestOf(ctx, len(opts), portfolioWorkers(opts), func(i int) (*Plan, error) {
		plan, st, err := engines[i].PlanCtx(ctx, tree)
		stats[i] = st
		return plan, err
	})
	for _, st := range stats {
		total.Add(st)
	}
	return best, total, err
}
