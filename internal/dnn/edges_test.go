package dnn_test

import (
	"slices"
	"testing"

	"accpar/internal/dnn"
	"accpar/internal/models"
	"accpar/internal/workload"
)

// refEdges is the per-path enumeration Edges replaced: resolve every
// segment's unit indices into fresh slices, then walk them, growing the
// result by append. Edges must return exactly its pairs in its order.
func refEdges(n *dnn.Network) [][2]int {
	type seg struct {
		unit  int
		paths [][]int
	}
	var segs []seg
	idx := 0
	for _, s := range n.Segments {
		if s.Unit != nil {
			segs = append(segs, seg{unit: idx})
			idx++
			continue
		}
		sp := seg{unit: -1}
		for _, p := range s.Paths {
			path := make([]int, len(p))
			for i := range p {
				path[i] = idx
				idx++
			}
			sp.paths = append(sp.paths, path)
		}
		segs = append(segs, sp)
	}
	var edges [][2]int
	prev := segs[0].unit
	i := 1
	for i < len(segs) {
		s := segs[i]
		if s.unit >= 0 {
			edges = append(edges, [2]int{prev, s.unit})
			prev = s.unit
			i++
			continue
		}
		merge := segs[i+1].unit
		for _, path := range s.paths {
			if len(path) == 0 {
				edges = append(edges, [2]int{prev, merge})
				continue
			}
			edges = append(edges, [2]int{prev, path[0]})
			for k := 1; k < len(path); k++ {
				edges = append(edges, [2]int{path[k-1], path[k]})
			}
			edges = append(edges, [2]int{path[len(path)-1], merge})
		}
		prev = merge
		i += 2
	}
	return edges
}

// TestEdgesMatchReference checks Edges against the reference enumeration
// on every registered model and on 200 random series-parallel networks,
// and that it allocates its result exactly once.
func TestEdgesMatchReference(t *testing.T) {
	check := func(name string, net *dnn.Network) {
		t.Helper()
		got, want := net.Edges(), refEdges(net)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Edges() = %v, want %v", name, got, want)
		}
		if len(got) != cap(got) {
			t.Errorf("%s: %d edges in a slice of capacity %d", name, len(got), cap(got))
		}
		if allocs := testing.AllocsPerRun(1, func() { net.Edges() }); allocs > 1 {
			t.Errorf("%s: Edges() made %.0f allocations, want 1", name, allocs)
		}
	}
	names := models.Names()
	if len(names) != 11 {
		t.Fatalf("%d registered models, want 11", len(names))
	}
	for _, name := range names {
		net, err := models.BuildNetwork(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(name, net)
	}
	for seed := int64(0); seed < 200; seed++ {
		net, err := workload.GenerateNetwork(seed, workload.Config{ResidualProb: 0.5, MaxLayers: 16})
		if err != nil {
			t.Fatal(err)
		}
		check(net.Name, net)
	}
}
