package core

import (
	"context"
	"math"
	"testing"
)

// TestExhaustiveMatchesDPFullHierarchy: across the whole hierarchy, the
// exhaustive search and the dynamic programming produce plans with
// identical modelled time — end-to-end confirmation of Eq. 9's optimality
// (the per-level equivalence is certified separately by the brute-force
// tests).
func TestExhaustiveMatchesDPFullHierarchy(t *testing.T) {
	tree := paperTree(t, 4)
	for _, model := range []string{"lenet", "alexnet"} {
		net := buildNet(t, model, 32)
		dp, err := PartitionCtx(context.Background(), net, tree, AccPar())
		if err != nil {
			t.Fatal(err)
		}
		opt := AccPar()
		opt.Exhaustive = true
		ex, err := PartitionCtx(context.Background(), net, tree, opt)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(dp.Time()-ex.Time()) > 1e-12*(1+dp.Time()) {
			t.Errorf("%s: DP time %.12g != exhaustive %.12g", model, dp.Time(), ex.Time())
		}
	}
}

// TestExhaustiveRefusesLargeNetworks: VGG-19 has 19 weighted layers —
// beyond the enumeration cap.
func TestExhaustiveRefusesLargeNetworks(t *testing.T) {
	net := buildNet(t, "vgg19", 16)
	opt := AccPar()
	opt.Exhaustive = true
	if _, err := PartitionCtx(context.Background(), net, paperTree(t, 2), opt); err == nil {
		t.Error("exhaustive search over 19 units must be refused")
	}
}

// TestExhaustiveRespectsRestrictions: the restricted type set constrains
// the enumeration too.
func TestExhaustiveRespectsRestrictions(t *testing.T) {
	net := buildNet(t, "lenet", 16)
	opt := HyPar()
	opt.Exhaustive = true
	plan, err := PartitionCtx(context.Background(), net, paperTree(t, 2), opt)
	if err != nil {
		t.Fatal(err)
	}
	if h := plan.TypeHistogram(); h[2] != 0 { // cost.TypeIII
		t.Error("restricted exhaustive search must not emit Type-III")
	}
}
