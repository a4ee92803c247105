package core

import (
	"context"
	"fmt"
	"testing"

	"accpar/internal/faults"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

// decodeFaults reads 1–3 fault specs from fuzz bytes, three bytes each:
// kind, group, and a parameter byte mapped to the kind's factor, rate or
// lost fraction. Trailing bytes short of a whole spec are ignored.
func decodeFaults(data []byte) []faults.Fault {
	var out []faults.Fault
	for len(data) >= 3 && len(out) < 3 {
		f := faults.Fault{Kind: faults.Kind(data[0] % 5), Group: int(data[1] % 2)}
		param := float64(data[2])
		switch f.Kind {
		case faults.KindTransient:
			f.Rate = param / 512 // [0, 0.5)
		case faults.KindGroupLoss:
			f.Fraction = float64(data[2]%3+1) / 4 // 1/4, 1/2 or 3/4
		default:
			f.Factor = 1 + param/32 // [1, 9)
		}
		out = append(out, f)
		data = data[3:]
	}
	return out
}

// FuzzReplanEngine drives replans through fuzzed fault scenarios on the
// 4+4 TPU-v2/v3 fleet, on two shared caches: a default-sized one that
// retains everything and one so small that every call evicts. The
// decoded specs build growing compound scenarios (the first spec, the
// first two, all three); each cache replans each twice, round-robin, and
// every report must be byte-identical to the cold reference. On the
// large cache, the second sight of a scenario must be served from the
// memo without expanding a single subproblem.
func FuzzReplanEngine(f *testing.F) {
	f.Add([]byte{0, 0, 0, 32})                        // lenet, slowdown:0=2
	f.Add([]byte{1, 4, 1, 1, 0, 1, 96})               // alexnet, loss:1=0.5 then slowdown:1=4
	f.Add([]byte{1, 2, 0, 224, 3, 1, 25, 0, 1, 16})   // alexnet, netbw, transient, slowdown
	f.Add([]byte{0, 4, 0, 2, 4, 1, 0, 0, 0, 255, 99}) // lenet, two losses, a steep slowdown
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		model := "lenet"
		if data[0]%2 == 1 {
			model = "alexnet"
		}
		fs := decodeFaults(data[1:])
		net, err := models.BuildNetwork(model, 32)
		if err != nil {
			t.Fatal(err)
		}
		groups := v2v3Groups(4)
		pristine := treeFor(t, groups...)
		opt := AccPar()
		trees := make([]*hardware.Tree, len(fs))
		refs := make([]*ReplanReport, len(fs))
		for i := range fs {
			sc := faults.Scenario{Faults: fs[:i+1]}
			if err := sc.Validate(); err != nil {
				t.Fatalf("decoded scenario %s: %v", sc.String(), err)
			}
			trees[i] = degradedTreeFor(t, groups, sc)
			refs[i] = coldReplanReference(t, net, pristine, trees[i], opt)
		}
		large, small := NewSharedCache(0), NewSharedCache(8)
		for round := 0; round < 2; round++ {
			for i := range trees {
				label := fmt.Sprintf("%s round %d scenario %d", model, round, i)
				rep, err := cachedReplan(context.Background(), net, pristine, trees[i], opt, large)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertReportsEqual(t, label, rep, refs[i])
				if round > 0 && rep.Stats.Expanded != 0 {
					t.Errorf("%s: recurrent scenario expanded %d subproblems, want 0", label, rep.Stats.Expanded)
				}
				rep, err = cachedReplan(context.Background(), net, pristine, trees[i], opt, small)
				if err != nil {
					t.Fatalf("%s on the small cache: %v", label, err)
				}
				assertReportsEqual(t, label+" on the small cache", rep, refs[i])
				if n := small.Len(); n > 8 {
					t.Errorf("%s: small cache holds %d entries, capacity 8", label, n)
				}
			}
		}
	})
}
