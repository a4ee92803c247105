package core

import (
	"encoding/binary"
	"encoding/json"
	"hash/fnv"
	"io"
	"math"
	"os"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/plancache"
)

// This file connects the planner to the cross-run plan cache. The
// per-search planMemo (memo.go) dies with each PartitionCtx call; SharedCache
// outlives searches, processes and — through snapshots — machines. Only
// one-shot searches (PartitionCtx) attach it: a ReplanEngine's retained
// memo is that engine's one store, and mirroring its work here would only
// churn the cache with subproblems of hardware that rarely recurs. Every
// entry is a solved hierarchical subproblem, content-addressed by the
// concatenation of two fingerprints:
//
//   - the search fingerprint: everything fixed for one planner — the
//     network's unit/segment structure and every Options field that can
//     change a decision (the Fixed assignment function is fingerprinted by
//     its observable behaviour: its result on each unit);
//   - the subproblem key (memo.go): the hardware subtree and the
//     effective per-unit dims at the node.
//
// Parallelism is deliberately absent from the fingerprint: plans are
// byte-identical across worker counts (TestParallelismEquivalence), so a
// plan solved serially may warm a parallel search and vice versa.

// cacheSchema tags the snapshot value encoding AND the cost-model
// generation. Bump it whenever PlanNode's serialized form, any cost the
// planner bakes into cached nodes, or the subproblem key scheme changes,
// so stale snapshots are rejected instead of silently replaying outdated
// solutions (or, for a key-scheme change, carrying entries no search can
// ever hit again). v2: digest-based subproblem keys (subtree content
// digests, now hardware.Tree.Identity).
// v3: level-independent subtree digests (levels are relabeled on clone,
// so entries keyed under the old level-folding scheme can never be hit).
// v4: HBM capacities became decision-relevant (Options.MemoryLimit) — a
// v3 snapshot written before the constraint existed could replay a
// now-infeasible plan into a constrained search.
const cacheSchema = "accpar-plan-node-v4"

// SharedCache is a concurrency-safe, bounded, persistent cache of solved
// hierarchical subproblems, shared across one-shot searches — PartitionCtx,
// the AccPar portfolio, Compare, evaluation sweeps and autotuning — over
// any mix of networks, hardware trees and options. Replanning never
// touches it: replan engines keep their own dependency-tracked memo. The
// zero capacity selects plancache.DefaultCapacity.
type SharedCache struct {
	c *plancache.Cache[*PlanNode]
}

// NewSharedCache returns a cache bounded to capacity resident subproblem
// solutions (≤ 0 selects the default).
func NewSharedCache(capacity int) *SharedCache {
	return &SharedCache{c: plancache.New[*PlanNode](capacity)}
}

// Stats returns the cache's hit/miss/eviction/coalesce counters.
func (s *SharedCache) Stats() plancache.Stats {
	if s == nil {
		return plancache.Stats{}
	}
	return s.c.Stats()
}

// Len returns the resident entry count.
func (s *SharedCache) Len() int {
	if s == nil {
		return 0
	}
	return s.c.Len()
}

// encodePlanNode serializes a cached subtree with full fidelity. Every
// PlanNode field is exported, so the plain JSON form round-trips exactly:
// Go encodes float64 values with the shortest representation that parses
// back to the identical bits, keeping snapshot-restored plans
// byte-identical to freshly computed ones.
func encodePlanNode(n *PlanNode) ([]byte, error) {
	return json.Marshal(n)
}

// decodePlanNode reverses encodePlanNode, rejecting with an
// *InvalidPlanError any subtree a search could not have produced, so a
// corrupted or tampered snapshot can never replay an unusable node into
// a plan.
func decodePlanNode(b []byte) (*PlanNode, error) {
	var n PlanNode
	if err := json.Unmarshal(b, &n); err != nil {
		return nil, err
	}
	if len(n.Dims) == 0 {
		return nil, invalidNode(&n, "no unit dims")
	}
	if err := validateTree(&n, len(n.Dims)); err != nil {
		return nil, err
	}
	if err := checkDecodedNode(&n); err != nil {
		return nil, err
	}
	return &n, nil
}

// checkDecodedNode walks a structurally valid decoded subtree for the
// value defects validateTree does not cover: non-positive dims, types
// outside the three partition types, and negative or non-finite figures.
func checkDecodedNode(n *PlanNode) error {
	for i, d := range n.Dims {
		if err := d.Validate(); err != nil {
			return invalidNode(n, "unit %d: %v", i, err)
		}
	}
	for i, t := range n.Types {
		if t != cost.TypeI && t != cost.TypeII && t != cost.TypeIII {
			return invalidNode(n, "unit %d has invalid partition type %d", i, int(t))
		}
	}
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"alpha", n.Alpha},
		{"time I", n.Eval.TimeI}, {"time J", n.Eval.TimeJ},
		{"comm time", n.Eval.CommTime}, {"comm bytes", n.Eval.CommBytes},
		{"side I compute", n.SideI.Compute}, {"side I net", n.SideI.Net},
		{"side J compute", n.SideJ.Compute}, {"side J net", n.SideJ.Net},
		{"leaf compute time", n.LeafComputeTime}, {"leaf memory time", n.LeafMemTime},
		{"leaf comm time", n.LeafCommTime},
		{"leaf residency bytes", float64(n.LeafResidencyBytes)}, {"leaf HBM bytes", float64(n.LeafHBMBytes)},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return invalidNode(n, "%s = %g", f.name, f.v)
		}
	}
	if n.IsLeaf() {
		return nil
	}
	if err := checkDecodedNode(n.Left); err != nil {
		return err
	}
	return checkDecodedNode(n.Right)
}

// Save writes a versioned snapshot of the cache for cross-process
// warm-start.
func (s *SharedCache) Save(w io.Writer) error {
	return s.c.Save(w, cacheSchema, encodePlanNode)
}

// Load replays a snapshot previously written with Save, returning the
// number of restored subproblems. Snapshots from an incompatible plan
// encoding are rejected, as are snapshots holding any entry no search
// could have produced (InvalidPlanError); a rejected snapshot restores
// nothing.
func (s *SharedCache) Load(r io.Reader) (int, error) {
	return s.c.Load(r, cacheSchema, decodePlanNode)
}

// SaveFile writes a snapshot to path.
func (s *SharedCache) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile replays the snapshot at path. A missing file is not an error —
// it is the cold-start case every warm-start protocol begins with — and
// restores zero entries.
func (s *SharedCache) LoadFile(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	defer f.Close()
	return s.Load(f)
}

// searchFingerprint hashes everything that is fixed across one planner's
// subproblems but varies between planners sharing a cache: the network
// structure and the decision-relevant options. Subproblem keys (subtree,
// dims) are only unique within one fingerprint.
func searchFingerprint(units []dnn.WeightedLayer, segs, planSegs []segRef, opt Options) string {
	h := fnv.New128a()
	var buf [8]byte
	wInt := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	wStr := func(s string) {
		wInt(int64(len(s)))
		h.Write([]byte(s))
	}
	wStr(cacheSchema)

	// Network structure: per-unit identity (dims travel in the subproblem
	// key) and the series-parallel segment shape, both as searched and as
	// planned (they differ under Linearize).
	wInt(int64(len(units)))
	for _, u := range units {
		wStr(u.Name)
		wInt(int64(u.Kind))
		if u.Virtual {
			wInt(1)
		} else {
			wInt(0)
		}
	}
	wSegs := func(refs []segRef) {
		wInt(int64(len(refs)))
		for _, r := range refs {
			wInt(int64(r.unit))
			wInt(int64(len(r.paths)))
			for _, p := range r.paths {
				wInt(int64(len(p)))
				for _, u := range p {
					wInt(int64(u))
				}
			}
		}
	}
	wSegs(segs)
	wSegs(planSegs)

	// Options, field by field. Types order matters to DP tie-breaking, so
	// the set is hashed in its configured order.
	wInt(int64(len(opt.Types)))
	for _, t := range opt.Types {
		wInt(int64(t))
	}
	wInt(int64(opt.Objective))
	wInt(int64(opt.Ratio))
	wInt(int64(opt.MaxRatioIters))
	if opt.Linearize {
		wInt(1)
	} else {
		wInt(0)
	}
	wInt(int64(opt.Optimizer))
	wInt(int64(opt.Topology))
	if opt.Exhaustive {
		wInt(1)
	} else {
		wInt(0)
	}
	wInt(int64(opt.Mode))
	// The memory constraint changes decisions (constrained searches may
	// pick different types or ratios), so it namespaces cache entries;
	// the capacity inputs themselves travel in the subproblem key, whose
	// subtree digests (hardware.Tree.Identity) fold in every spec's
	// HBMBytes fingerprint.
	wInt(int64(opt.MemoryLimit))

	// The Fixed assignment is a function — unhashable by value — but its
	// only observable effect is its result on each of this network's
	// units, so that result vector IS its fingerprint here.
	if opt.Fixed == nil {
		wInt(-1)
	} else {
		for _, u := range units {
			if t, ok := opt.Fixed(u); ok {
				wInt(int64(t) + 1)
			} else {
				wInt(0)
			}
		}
	}
	return string(h.Sum(nil))
}
