package hardware

import (
	"fmt"
	"slices"
	"sync"
)

// Group is a contiguous set of accelerators acting as one side of a
// bi-partition at some hierarchy level. The cost model treats a group as a
// virtual accelerator whose computation density is the sum of its members'
// FLOPS and whose effective network bandwidth is the sum of its members'
// link rates: each member transfers its own shard of a remotely-accessed
// tensor in parallel (the shards are disjoint because deeper levels
// partition the tensors further).
type Group struct {
	// Accel are the member specs.
	Accel []Spec
}

// Size returns the member count.
func (g *Group) Size() int { return len(g.Accel) }

// ComputeDensity returns c_i for the group: aggregate peak FLOPS.
func (g *Group) ComputeDensity() float64 {
	var c float64
	for _, s := range g.Accel {
		c += s.FLOPS
	}
	return c
}

// NetBandwidth returns b_i for the group: aggregate network byte rate.
func (g *Group) NetBandwidth() float64 {
	var b float64
	for _, s := range g.Accel {
		b += s.NetBandwidth
	}
	return b
}

// MemBandwidth returns the aggregate HBM byte rate.
func (g *Group) MemBandwidth() float64 {
	var b float64
	for _, s := range g.Accel {
		b += s.MemBandwidth
	}
	return b
}

// HBMBytes returns the aggregate memory capacity.
func (g *Group) HBMBytes() int64 {
	var b int64
	for _, s := range g.Accel {
		b += s.HBMBytes
	}
	return b
}

// Homogeneous reports whether all members share one spec name.
func (g *Group) Homogeneous() bool {
	for _, s := range g.Accel[1:] {
		if s.Name != g.Accel[0].Name {
			return false
		}
	}
	return true
}

// String summarizes the group.
func (g *Group) String() string {
	if g.Size() == 0 {
		return "group{}"
	}
	if g.Homogeneous() {
		return fmt.Sprintf("%d×%s", g.Size(), g.Accel[0].Name)
	}
	counts := map[string]int{}
	order := []string{}
	for _, s := range g.Accel {
		if counts[s.Name] == 0 {
			order = append(order, s.Name)
		}
		counts[s.Name]++
	}
	out := ""
	for i, n := range order {
		if i > 0 {
			out += "+"
		}
		out += fmt.Sprintf("%d×%s", counts[n], n)
	}
	return out
}

// Bisect splits the group into two halves for the next hierarchy level.
// A heterogeneous group splits along the spec boundary (the paper's top
// split separates the 128 TPU-v2 from the 128 TPU-v3); a homogeneous group
// splits evenly. The left half receives the slower (or first) spec so
// splits are deterministic. Returns an error when the group cannot be
// split (fewer than 2 members).
//
// The halves are values, so a caller decides where they live (BuildTree
// keeps them in its node slab). Where they can be, the halves are views
// of g's member slice, capped so an append to one cannot reach the
// other: member lists are never written in place, and a tree over n
// boards then holds one copy of its specs rather than one per level. A
// homogeneous group's halves always are views, and so are a
// heterogeneous group's when its first spec's boards already come first,
// as NewHeterogeneous lays out a fleet. Otherwise the two halves share
// one new member slice, left then right.
func (g *Group) Bisect() (left, right Group, err error) {
	if g.Size() < 2 {
		return Group{}, Group{}, fmt.Errorf("hardware: cannot bisect group of size %d", g.Size())
	}
	left, right = g.bisect(g.Homogeneous())
	return left, right, nil
}

// bisect is Bisect on a group of two or more members, told whether they
// share one spec name (Homogeneous), which BuildTree knows without
// scanning.
func (g *Group) bisect(homogeneous bool) (left, right Group) {
	n := g.Size()
	if homogeneous {
		mid := n / 2
		return Group{Accel: g.Accel[:mid:mid]}, Group{Accel: g.Accel[mid:n:n]}
	}
	// Split along the first spec-name boundary. Members with the first
	// spec go left, everything else right.
	first := g.Accel[0].Name
	k := 1
	for k < n && g.Accel[k].Name == first {
		k++
	}
	if !slices.ContainsFunc(g.Accel[k:], func(s Spec) bool { return s.Name == first }) {
		return Group{Accel: g.Accel[:k:k]}, Group{Accel: g.Accel[k:n:n]}
	}
	accel := make([]Spec, 0, n)
	for _, s := range g.Accel {
		if s.Name == first {
			accel = append(accel, s)
		}
	}
	k = len(accel)
	for _, s := range g.Accel {
		if s.Name != first {
			accel = append(accel, s)
		}
	}
	return Group{Accel: accel[:k:k]}, Group{Accel: accel[k:]}
}

// Tree is the recursive bi-partition hierarchy: each non-leaf node has two
// child groups; the layer-wise partitioning runs once per node, deciding
// partition types and the ratio between the node's two children.
type Tree struct {
	Group       *Group
	Left, Right *Tree
	// Level is the node's depth: the root is level 1 (the paper's Figure 7
	// numbers hierarchy levels starting at 1).
	Level int

	// identOnce guards ident, the node's content identity, computed on
	// the first Identity call. A Tree must therefore not be copied.
	identOnce sync.Once
	ident     Identity
}

// BuildTree constructs the hierarchy for the array, stopping after
// maxLevels levels of splitting or when groups become singletons, whichever
// comes first. maxLevels ≥ 1; a full binary hierarchy over 2^h accelerators
// has h levels. The returned tree's identities are already computed (see
// Identity), so building a tree includes digesting it.
//
// A split never leaves a half empty, so the hierarchy has at most one
// leaf per accelerator, 2n−1 nodes over n accelerators, and at most
// 2^(maxLevels+1)−1 within the level budget. Every node and its group
// come from one slab of that size, allocated once.
func BuildTree(a *Array, maxLevels int) (*Tree, error) {
	if a.Size() == 0 {
		return nil, fmt.Errorf("hardware: empty array")
	}
	if maxLevels < 1 {
		return nil, fmt.Errorf("hardware: maxLevels %d < 1", maxLevels)
	}
	size := 2*a.Size() - 1
	if maxLevels < 30 { // deeper budgets bound nothing an array can reach
		size = min(size, 1<<(maxLevels+1)-1)
	}
	slab := make([]struct {
		tree  Tree
		group Group
	}, size)
	next := 0
	node := func(g Group, level int) *Tree {
		n := &slab[next]
		next++
		n.group = g
		n.tree.Group, n.tree.Level = &n.group, level
		return &n.tree
	}
	root := node(Group{Accel: append([]Spec(nil), a.Accel...)}, 1)
	// grow is told whether t's members share one spec name. The halves
	// of such a group do too, and so does the left half of any split,
	// which holds the first spec's boards only: only the right half of a
	// heterogeneous split needs scanning.
	var grow func(t *Tree, homogeneous bool)
	grow = func(t *Tree, homogeneous bool) {
		if t.Level > maxLevels || t.Group.Size() < 2 {
			return
		}
		l, r := t.Group.bisect(homogeneous)
		t.Left, t.Right = node(l, t.Level+1), node(r, t.Level+1)
		grow(t.Left, true)
		grow(t.Right, homogeneous || t.Right.Group.Homogeneous())
	}
	grow(root, root.Group.Homogeneous())
	root.Identity()
	return root, nil
}

// IsLeaf reports whether the node has no children.
func (t *Tree) IsLeaf() bool { return t.Left == nil }

// Depth returns the number of levels in the subtree rooted at t.
func (t *Tree) Depth() int {
	if t.IsLeaf() {
		return 1
	}
	ld, rd := t.Left.Depth(), t.Right.Depth()
	if ld > rd {
		return 1 + ld
	}
	return 1 + rd
}

// Walk visits every node pre-order.
func (t *Tree) Walk(visit func(*Tree)) {
	visit(t)
	if t.Left != nil {
		t.Left.Walk(visit)
	}
	if t.Right != nil {
		t.Right.Walk(visit)
	}
}
