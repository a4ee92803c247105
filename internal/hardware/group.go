package hardware

import (
	"fmt"
	"slices"
	"sync"
)

// run is a maximal stretch of identical boards in a member list: their
// spec and its fingerprint, held by boards start to end-1.
type run struct {
	spec       Spec
	fp         uint64
	start, end int
}

// span is the boards lo to hi-1 of a run list: runs are the runs that
// hold them, the first and last perhaps only in part.
type span struct {
	runs   []run
	lo, hi int
}

// Group is a contiguous set of accelerators acting as one side of a
// bi-partition at some hierarchy level. The cost model treats a group as a
// virtual accelerator whose computation density is the sum of its members'
// FLOPS and whose effective network bandwidth is the sum of its members'
// link rates: each member transfers its own shard of a remotely-accessed
// tensor in parallel (the shards are disjoint because deeper levels
// partition the tensors further).
//
// A group is stored as its maximal runs of identical boards, so each
// method costs O(runs) however many boards it holds. Its aggregates are
// summed once, board by board in member order (see set).
// A Group must not be copied: it caches its String.
type Group struct {
	span
	flops, netBW, memBW float64
	hbm                 int64
	describeOnce        sync.Once
	desc                string
}

// add appends n boards of r's spec to s: to its last run when they are
// identical to its boards, else as the new run r. Boards are identical
// when they agree on every field Fingerprint reads.
func (s *span) add(r run, n int) {
	if last := len(s.runs) - 1; last >= 0 && sameFingerprintInputs(&s.runs[last].spec, &r.spec) {
		s.runs[last].end += n
	} else {
		r.start, r.end = s.hi, s.hi+n
		s.runs = append(s.runs, r)
	}
	s.hi += n
}

// set makes the zero group g the group of s and returns it, summing its
// aggregates board by board in member order, so each equals the
// member-order sum bit for bit (a run's n·x can round differently).
func (g *Group) set(s span) *Group {
	g.span = s
	var flops, netBW, memBW float64
	for i := range s.runs {
		spec, n := &s.runs[i].spec, s.count(i)
		f, nb, mb := spec.FLOPS, spec.NetBandwidth, spec.MemBandwidth
		for range n {
			flops += f
			netBW += nb
			memBW += mb
		}
		g.hbm += int64(n) * spec.HBMBytes // integers add in any order
	}
	g.flops, g.netBW, g.memBW = flops, netBW, memBW
	return g
}

// count returns how many boards of runs[i] the span holds.
func (s *span) count(i int) int { return min(s.runs[i].end, s.hi) - max(s.runs[i].start, s.lo) }

// cut returns the spans of s's boards before mid and from mid on.
func (s *span) cut(mid int) (left, right span) {
	// runs[i] holds board mid, and ends the left half's runs if it starts before.
	i := 0
	for s.runs[i].end <= mid {
		i++
	}
	j := i
	if s.runs[i].start < mid {
		j++
	}
	return span{s.runs[:j], s.lo, mid}, span{s.runs[i:], mid, s.hi}
}

// Size returns the member count.
func (g *Group) Size() int { return g.hi - g.lo }

// ComputeDensity returns c_i for the group: aggregate peak FLOPS.
func (g *Group) ComputeDensity() float64 { return g.flops }

// NetBandwidth returns b_i for the group: aggregate network byte rate.
func (g *Group) NetBandwidth() float64 { return g.netBW }

// MemBandwidth returns the aggregate HBM byte rate.
func (g *Group) MemBandwidth() float64 { return g.memBW }

// HBMBytes returns the aggregate memory capacity.
func (g *Group) HBMBytes() int64 { return g.hbm }

func (s *span) homogeneous() bool {
	return !slices.ContainsFunc(s.runs, func(r run) bool { return r.spec.Name != s.runs[0].spec.Name })
}

// String summarizes the group: each spec name's member count, names in
// order of first appearance, so [A,B,A] prints 2×A+1×B. It is formatted
// on the first call and cached.
func (g *Group) String() string {
	g.describeOnce.Do(func() {
		var b []byte
		for i, r := range g.runs {
			named := func(o run) bool { return o.spec.Name == r.spec.Name }
			if slices.ContainsFunc(g.runs[:i], named) {
				continue // counted at its first run
			}
			n := 0
			for j := i; j < len(g.runs); j++ {
				if named(g.runs[j]) {
					n += g.count(j)
				}
			}
			b = fmt.Appendf(b, "+%d×%s", n, r.spec.Name)
		}
		g.desc = "group{}"
		if len(b) > 0 {
			g.desc = string(b[1:])
		}
	})
	return g.desc
}

// Bisect splits the group into two halves for the next hierarchy level.
// A heterogeneous group splits along the spec boundary (the paper's top
// split separates the 128 TPU-v2 from the 128 TPU-v3); a homogeneous group
// splits evenly. The left half receives the first spec's boards so
// splits are deterministic. Returns an error when the group cannot be
// split (fewer than 2 members).
func (g *Group) Bisect() (left, right *Group, err error) {
	if g.Size() < 2 {
		return nil, nil, fmt.Errorf("hardware: cannot bisect group of size %d", g.Size())
	}
	l, r := g.halves()
	return new(Group).set(l), new(Group).set(r), nil
}

// halves returns Bisect's halves of s's boards as views of its runs, or
// of one new run list when a heterogeneous group's first spec is
// interleaved with others.
func (s *span) halves() (left, right span) {
	name := s.runs[0].spec.Name
	k := 1 // the first run of another name
	for k < len(s.runs) && s.runs[k].spec.Name == name {
		k++
	}
	switch {
	case k == len(s.runs):
		return s.cut(s.lo + (s.hi-s.lo)/2)
	case !slices.ContainsFunc(s.runs[k+1:], func(r run) bool { return r.spec.Name == name }):
		return s.cut(s.runs[k].start)
	}
	m := span{runs: make([]run, 0, len(s.runs))}
	for _, named := range [2]bool{true, false} {
		k = m.hi // on the second pass, the left half's boards
		for i, r := range s.runs {
			if (r.spec.Name == name) == named {
				m.add(r, s.count(i))
			}
		}
	}
	return m.cut(k)
}

// Tree is the recursive bi-partition hierarchy: each non-leaf node has two
// child groups; the layer-wise partitioning runs once per node, deciding
// partition types and the ratio between the node's two children. Left and
// Right may be one node (see BuildTree): tell positions apart by path.
type Tree struct {
	Group       *Group
	Left, Right *Tree
	// Level is the node's depth: the root is level 1 (the paper's Figure 7
	// numbers hierarchy levels starting at 1).
	Level int

	// identOnce guards ident, the node's content identity, computed on
	// the first Identity call, unless built says BuildTree computed it
	// before it returned the tree. A Tree must therefore not be copied.
	identOnce sync.Once
	built     bool
	ident     Identity
}

// BuildTree constructs the hierarchy for the array, stopping after
// maxLevels levels of splitting or when groups become singletons, whichever
// comes first. maxLevels ≥ 1; a full binary hierarchy over 2^h accelerators
// has h levels. The returned tree's identities are already computed (see
// Identity), so building a tree includes digesting it.
//
// Equal halves, of a group of one run with an even count, are one node:
// they hold the same boards and split alike all the way down, so the 511
// positions over 128×TPU-v2 + 128×TPU-v3 are 17 nodes. A first walk
// counts the nodes, so they come from one slab of exactly that size.
func BuildTree(a *Array, maxLevels int) (*Tree, error) {
	if a.Size() == 0 {
		return nil, fmt.Errorf("hardware: empty array")
	}
	if maxLevels < 1 {
		return nil, fmt.Errorf("hardware: maxLevels %d < 1", maxLevels)
	}
	type entry struct {
		tree  Tree
		group Group
	}
	var slab []entry
	nodes := 0
	// grow returns the node of s and its subtree, or only counts their
	// nodes while the slab is nil.
	var grow func(s span, level int) *Tree
	grow = func(s span, level int) *Tree {
		var t *Tree
		if slab != nil {
			n := &slab[nodes]
			n.group.set(s)
			n.tree.Group, n.tree.Level = &n.group, level
			t = &n.tree
		}
		nodes++
		var left, right *Tree
		if level <= maxLevels && s.hi-s.lo >= 2 {
			l, r := s.halves()
			left = grow(l, level+1)
			right = left
			if len(s.runs) > 1 || (s.hi-s.lo)%2 == 1 {
				right = grow(r, level+1)
			}
		}
		if t != nil {
			t.Left, t.Right = left, right
			t.computeIdentity() // after its children's, each computed once
			t.built = true
		}
		return t
	}
	grow(a.members, 1)
	slab = make([]entry, nodes)
	nodes = 0
	return grow(a.members, 1), nil
}

// IsLeaf reports whether the node has no children.
func (t *Tree) IsLeaf() bool { return t.Left == nil }

// Depth returns the number of levels in the subtree rooted at t.
func (t *Tree) Depth() int {
	if t.IsLeaf() {
		return 1
	}
	d := t.Left.Depth()
	if t.Right != t.Left {
		d = max(d, t.Right.Depth())
	}
	return 1 + d
}

// Walk visits every position of the hierarchy pre-order, so a node
// shared by twin halves is visited once per position it stands at.
func (t *Tree) Walk(visit func(*Tree)) {
	visit(t)
	if t.Left != nil {
		t.Left.Walk(visit)
	}
	if t.Right != nil {
		t.Right.Walk(visit)
	}
}
