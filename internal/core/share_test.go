package core

import "testing"

// TestMemoHitLinksStoredNode: a memo hit links the stored *PlanNode
// itself — a recurrent tree's root on a retained planner, and the second
// of two identical sibling subproblems within one search. A reintroduced
// deep clone fails both.
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
		t.Error("a root hit returned a copy, not the stored node")
	}
	for _, half := range []*PlanNode{first.Root.Left, first.Root.Right} {
		if half.Left != half.Right {
			t.Errorf("%s: identical sibling subproblems were not linked to one node", half.GroupDesc)
		}
	}
}
