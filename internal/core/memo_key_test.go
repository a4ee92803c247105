package core

import (
	"context"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/hardware"
)

// TestSubproblemKeyBytes pins the memo keys of two fixed (subtree, dims)
// subproblems: a root and a scaled left child. Keys live only in memory,
// so they may change between versions; the pin guards that hashing is
// deterministic and that any change to it is deliberate.
func TestSubproblemKeyBytes(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	p, err := newPlanner(nil, net, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	tree := paperTree(t, 2)
	types := make([]cost.Type, len(p.units))
	for i := range types {
		types[i] = cost.Types[i%len(cost.Types)]
	}
	childDims := p.scaled(p.rootDims, types, 0.3)
	for _, c := range []struct {
		name string
		key  subKey
		want string
	}{
		{"root", p.subproblemKey(tree, p.rootDims), "f736df0a8e006ff7c47808e0b00cdae0"},
		{"left child", p.subproblemKey(tree.Left, childDims), "61271397ab0eea721324f505bdb185dd"},
	} {
		if got := hex.EncodeToString(c.key[:]); got != c.want {
			t.Errorf("%s key = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestChildKeyMatchesScaledDims: a split keys each child as it scales
// the child's extents into a buffer (childKey), while the root, replan and
// stale paths key extents they already hold (subproblemKey). The two must
// agree exactly, or a child solved on one path would silently miss on the
// other, and the buffer a miss solves from must hold the extents of
// ScaleUnitDims's dims, which plan walkers derive. Random type vectors
// and ratios at both clamps are walked several levels down on ResNet-18
// and inception, whose virtual junction units (residual adds,
// concatenations) scale both channel extents.
func TestChildKeyMatchesScaledDims(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	ratios := []float64{cost.MinRatio, 2 * cost.MinRatio, 0.3, 0.5, 1 - 2*cost.MinRatio, 1 - cost.MinRatio}
	for _, model := range []string{"resnet18", "inception"} {
		net := buildNet(t, model, 64)
		p, err := newPlanner(nil, net, AccPar())
		if err != nil {
			t.Fatal(err)
		}
		virtual := false
		for _, u := range p.units {
			virtual = virtual || u.Virtual
		}
		if !virtual {
			t.Fatalf("%s has no virtual junction units to cover", model)
		}
		tree := paperTree(t, 8)
		for trial := 0; trial < 20; trial++ {
			node, dims, full := tree, p.rootDims, layerDims(p.units)
			for !node.IsLeaf() {
				types := make([]cost.Type, len(dims))
				for i := range types {
					types[i] = cost.Types[rnd.Intn(len(cost.Types))]
				}
				r := ratios[rnd.Intn(len(ratios))]
				if trial%2 == 1 {
					r = cost.ClampRatio(rnd.Float64())
				}
				child := node.Left
				if rnd.Intn(2) == 1 {
					child = node.Right
				}
				full = ScaleUnitDims(p.units, full, types, r)
				scaled := make([]extents, len(full))
				for i, d := range full {
					scaled[i] = extentsOf(d)
				}
				buf := make([]extents, len(dims))
				got := p.childKey(buf, child, dims, types, r)
				if want := p.subproblemKey(child, scaled); got != want {
					t.Fatalf("%s level %d ratio %g: childKey %x, subproblemKey %x", model, node.Level, r, got, want)
				}
				if !slices.Equal(buf, scaled) {
					t.Fatalf("%s level %d ratio %g: childKey wrote %v, ScaleUnitDims %v", model, node.Level, r, buf, scaled)
				}
				node, dims = child, scaled
			}
		}
	}
}

// TestStaleKeysDisjoint: a replan memoizes stale re-costings next to
// plain subproblems in one memo, the cache's memo for its fingerprint.
// Every stale entry must carry a pristine subtree digest in its stale
// half, so no stale key can equal a plain one.
func TestStaleKeysDisjoint(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	groups := v2v3Groups(8)
	pristine := treeFor(t, groups...)
	cache := NewSharedCache(0)
	if _, err := cachedReplan(context.Background(), net, pristine, slowdownTree(t, groups, 0, 2), AccPar(), cache); err != nil {
		t.Fatal(err)
	}
	if len(cache.entries) != 1 {
		t.Fatalf("one replan left %d entries in the cache, want 1", len(cache.entries))
	}
	digests := map[[16]byte]bool{}
	var walk func(n *hardware.Tree)
	walk = func(n *hardware.Tree) {
		if n == nil {
			return
		}
		digests[n.Identity().Digest] = true
		walk(n.Left)
		walk(n.Right)
	}
	walk(pristine)
	plain := map[memoKey]bool{}
	var stale []memoKey
	var memo *planMemo
	for _, e := range cache.entries {
		memo = &e.memo
	}
	for i := range memo.shards {
		for k := range memo.shards[i].m {
			if k.stale == ([16]byte{}) {
				plain[k] = true
			} else {
				stale = append(stale, k)
			}
		}
	}
	if len(plain) == 0 || len(stale) == 0 {
		t.Fatalf("memo holds %d plain and %d stale entries; want both kinds", len(plain), len(stale))
	}
	for _, k := range stale {
		if !digests[k.stale] {
			t.Errorf("stale key %x carries %x, not a pristine subtree digest", k.sub, k.stale)
		}
		if plain[k] {
			t.Errorf("stale key %x equals a plain key", k.sub)
		}
	}
}
