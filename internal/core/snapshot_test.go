package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

// snapshotEnvelope mirrors plancache's snapshot file so tests can tamper
// with individual entries.
type snapshotEnvelope struct {
	Magic   string `json:"magic"`
	Version int    `json:"version"`
	Schema  string `json:"schema"`
	Entries []struct {
		K []byte `json:"k"`
		V []byte `json:"v"`
	} `json:"entries"`
}

// smallSnapshotSearch is the search behind the test snapshots: the
// AccPar portfolio (what Session.Partition runs) for LeNet on one TPU-v2
// and one TPU-v3, small enough to fuzz.
func smallSnapshotSearch(tb testing.TB) (*dnn.Network, *hardware.Tree) {
	tb.Helper()
	net, err := models.BuildNetwork("lenet", 16)
	if err != nil {
		tb.Fatal(err)
	}
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 1},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 1})
	if err != nil {
		tb.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 8)
	if err != nil {
		tb.Fatal(err)
	}
	return net, tree
}

// smallSnapshot returns a real snapshot of the cache after the full
// AccPar configuration's smallSnapshotSearch: three entries, the root
// split and its two leaves.
func smallSnapshot(tb testing.TB) []byte {
	tb.Helper()
	net, tree := smallSnapshotSearch(tb)
	cache := NewSharedCache(0)
	opt := AccPar()
	opt.Cache = cache
	if _, err := PartitionCtx(context.Background(), net, tree, opt); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cache.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// tamperSplits applies mutate to the last split entry of a snapshot, or
// with every set to all of them. Tampering the last one means a load that
// inserted entries before decoding them all would already have restored
// the earlier ones.
func tamperSplits(tb testing.TB, snap []byte, every bool, mutate func(n *PlanNode)) []byte {
	tb.Helper()
	var env snapshotEnvelope
	if err := json.Unmarshal(snap, &env); err != nil {
		tb.Fatal(err)
	}
	tampered := false
	for i := len(env.Entries) - 1; i > 0 && (every || !tampered); i-- {
		var n PlanNode
		if err := json.Unmarshal(env.Entries[i].V, &n); err != nil {
			tb.Fatal(err)
		}
		if n.IsLeaf() {
			continue
		}
		mutate(&n)
		v, err := json.Marshal(&n)
		if err != nil {
			tb.Fatal(err)
		}
		env.Entries[i].V = v
		tampered = true
	}
	if !tampered {
		tb.Fatal("snapshot has no split entry after its first")
	}
	out, err := json.Marshal(&env)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// TestSnapshotLoadRejectsInvalidEntries: an entry no search could have
// produced fails the whole load with an *InvalidPlanError and restores
// nothing. Without the check, a partition type of 7 loads, reaches a
// plan through Partition, and panics in cost.Type.Dim when simulated.
func TestSnapshotLoadRejectsInvalidEntries(t *testing.T) {
	snap := smallSnapshot(t)
	for _, tc := range []struct {
		name   string
		mutate func(n *PlanNode)
	}{
		{"type out of range", func(n *PlanNode) { n.Types[0] = 7 }},
		{"negative type", func(n *PlanNode) { n.Types[0] = -1 }},
		{"short type vector", func(n *PlanNode) { n.Types = n.Types[:1] }},
		{"alpha out of range", func(n *PlanNode) { n.Alpha = 1.5 }},
		{"half-leaf", func(n *PlanNode) { n.Left = nil }},
		{"missing unit dims", func(n *PlanNode) { n.Left.Dims = n.Left.Dims[:1] }},
		{"no dims", func(n *PlanNode) { n.Dims = nil }},
		{"zero dim", func(n *PlanNode) { n.Dims[0].B = 0 }},
		{"negative comm time", func(n *PlanNode) { n.Eval.CommTime = -1 }},
		{"negative comm bytes", func(n *PlanNode) { n.Eval.CommBytes = -1 }},
		{"negative side bandwidth", func(n *PlanNode) { n.SideJ.Net = -1 }},
		{"negative leaf time", func(n *PlanNode) { n.Left.LeafMemTime = -1 }},
		{"negative leaf comm time", func(n *PlanNode) { n.Right.LeafCommTime = -1 }},
		{"negative residency", func(n *PlanNode) { n.Left.LeafResidencyBytes = -1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := NewSharedCache(0)
			n, err := cache.Load(bytes.NewReader(tamperSplits(t, snap, false, tc.mutate)))
			var invalid *InvalidPlanError
			if !errors.As(err, &invalid) {
				t.Fatalf("Load = (%d, %v), want an *InvalidPlanError", n, err)
			}
			if n != 0 || cache.Len() != 0 {
				t.Errorf("rejected snapshot restored %d entries (%d resident)", n, cache.Len())
			}
		})
	}

	// The untampered snapshot still loads in full.
	cache := NewSharedCache(0)
	n, err := cache.Load(bytes.NewReader(snap))
	if err != nil || n == 0 || n != cache.Len() {
		t.Fatalf("valid snapshot: Load = (%d, %v), %d resident", n, err, cache.Len())
	}
}

// FuzzSharedCacheLoad: Load never panics, a rejected snapshot restores
// nothing, and a search warm-started from any accepted snapshot returns
// either an *InvalidPlanError or a plan whose every split assigns one of
// the three partition types to each unit.
func FuzzSharedCacheLoad(f *testing.F) {
	snap := smallSnapshot(f)
	f.Add(snap)
	f.Add(tamperSplits(f, snap, true, func(n *PlanNode) { n.Types[0] = 7 }))
	f.Add([]byte(`{"magic":"accpar-plancache","version":1,"schema":"` + cacheSchema + `","entries":[{"k":"","v":"bnVsbA=="}]}`))
	net, tree := smallSnapshotSearch(f)
	nUnits := len(net.Units())
	f.Fuzz(func(t *testing.T, data []byte) {
		cache := NewSharedCache(0)
		n, err := cache.Load(bytes.NewReader(data))
		if err != nil {
			if n != 0 || cache.Len() != 0 {
				t.Fatalf("rejected snapshot restored %d entries (%d resident): %v", n, cache.Len(), err)
			}
			return
		}
		plan, err := PartitionCtx(context.Background(), net, tree, cachedVariants(cache)...)
		if err != nil {
			var invalid *InvalidPlanError
			if !errors.As(err, &invalid) {
				t.Fatalf("warm-started search failed with an untyped error: %v", err)
			}
			return
		}
		var walk func(n *PlanNode)
		walk = func(n *PlanNode) {
			if n.IsLeaf() {
				return
			}
			if len(n.Types) != nUnits {
				t.Fatalf("level %d has %d types for %d units", n.Level, len(n.Types), nUnits)
			}
			for u, ty := range n.Types {
				if ty != cost.TypeI && ty != cost.TypeII && ty != cost.TypeIII {
					t.Fatalf("level %d unit %d has type %v", n.Level, u, ty)
				}
			}
			walk(n.Left)
			walk(n.Right)
		}
		walk(plan.Root)
	})
}
