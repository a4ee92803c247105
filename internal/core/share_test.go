package core

import (
	"context"
	"testing"
)

// TestMemoHitLinksStoredNode: a memo hit at the depth its entry was
// solved at links the stored *PlanNode itself — a recurrent tree's root
// on a retained planner, and the second of two identical sibling
// subproblems within one search. A reintroduced deep clone fails both.
func TestMemoHitLinksStoredNode(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	opt := AccPar()
	opt.Ratio = RatioEqual
	opt.Parallelism = 1
	p, err := newPlanner(nil, net, opt)
	if err != nil {
		t.Fatal(err)
	}
	tree := paperTree(t, 4)
	first, err := p.plan(tree)
	if err != nil {
		t.Fatal(err)
	}
	stored, _, ok := p.memo.get(memoKey{sub: p.subproblemKey(tree, p.rootDims)}, 0)
	if !ok {
		t.Fatal("root subproblem not memoized")
	}
	if first.Root != stored {
		t.Error("a solved root is not the node the memo stores")
	}
	second, err := p.plan(tree)
	if err != nil {
		t.Fatal(err)
	}
	if second.Root != stored {
		t.Error("a same-depth root hit returned a copy, not the stored node")
	}
	for _, half := range []*PlanNode{first.Root.Left, first.Root.Right} {
		if half.Left != half.Right {
			t.Errorf("%s: identical sibling subproblems were not linked to one node", half.GroupDesc)
		}
	}
}

// TestAtLevelRelabelsOnlyOnDepthMismatch: atLevel returns a node at its
// own depth unchanged and copies it only to relabel another depth,
// keeping every other field and aliasing the per-unit slices.
func TestAtLevelRelabelsOnlyOnDepthMismatch(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	plan, err := PartitionCtx(context.Background(), net, paperTree(t, 2), AccPar())
	if err != nil {
		t.Fatal(err)
	}
	n := plan.Root.Right
	if atLevel(n, n.Level) != n {
		t.Fatal("a same-depth link copied the node")
	}
	moved := atLevel(n, n.Level+3)
	var walk func(got, orig *PlanNode, level int)
	walk = func(got, orig *PlanNode, level int) {
		if got == orig {
			t.Fatalf("level %d: relabel shares the node at the old depth", level)
		}
		if got.Level != level || got.GroupDesc != orig.GroupDesc || got.Alpha != orig.Alpha ||
			got.Eval != orig.Eval || got.LeafComputeTime != orig.LeafComputeTime {
			t.Fatalf("relabeled node %+v, original %+v", *got, *orig)
		}
		if &got.Dims[0] != &orig.Dims[0] {
			t.Fatalf("level %d: relabel copied Dims", level)
		}
		if orig.IsLeaf() {
			return
		}
		walk(got.Left, orig.Left, level+1)
		walk(got.Right, orig.Right, level+1)
	}
	walk(moved, n, n.Level+3)
}
