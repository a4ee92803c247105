package core

import (
	"encoding/hex"
	"testing"

	"accpar/internal/cost"
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
	childDims := scaleUnitDims(p.units, p.rootDims, types, 0.3)
	rootKey := p.subproblemKey(tree, p.rootDims)
	childKey := p.subproblemKey(tree.Left, childDims)
	for _, c := range []struct {
		name, key, want string
	}{
		{"root", rootKey, "064ac5a261364ef3496b2701202d948a"},
		{"left child", childKey, "6db54c380b2dd8b3ff6e33133349c5bc"},
	} {
		if got := hex.EncodeToString([]byte(c.key)); got != c.want {
			t.Errorf("%s key = %s, want %s", c.name, got, c.want)
		}
	}
}
