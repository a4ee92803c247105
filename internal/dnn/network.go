package dnn

import (
	"fmt"
	"slices"

	"accpar/internal/tensor"
)

// WeightedLayer is the partitioner's view of one CONV or FC layer: just its
// name, kind and cost-model dims. The AccPar search assigns one partition
// type per weighted layer (Figure 7 of the paper shows exactly these layers
// for AlexNet: cv1..cv5, fc1..fc3).
type WeightedLayer struct {
	Name string
	Kind Kind
	Dims tensor.LayerDims
	// Virtual marks a zero-cost junction unit: a residual Add merge point.
	// Virtual units carry no kernel and perform no costed computation, but
	// they hold a partition state in the dynamic programming — the layout of
	// the junction tensor between residual blocks. Their Dims describe the
	// junction tensor as an identity mapping (Di = Do = channels,
	// HIn = HOut, KH = KW = 1).
	Virtual bool
}

// Chain is an ordered sequence of weighted layers with purely linear
// dataflow between them.
type Chain []WeightedLayer

// Segment is one element of a series-parallel network: either a single
// weighted layer (Unit != nil) or a parallel region of alternative paths
// between the neighbouring units (Paths != nil). An empty Chain inside
// Paths represents an identity shortcut carrying the tensor unchanged
// (ResNet identity skip).
type Segment struct {
	Unit  *WeightedLayer
	Paths []Chain
}

// IsParallel reports whether the segment is a parallel region.
func (s Segment) IsParallel() bool { return s.Unit == nil }

// Network is the series-parallel sequence of weighted layers extracted from
// a Graph, the structure over which the layer-wise dynamic programming of
// Section 5 runs. Multi-path DNNs such as ResNet (Section 5.2) appear as
// parallel segments between units.
type Network struct {
	// Name labels the source model.
	Name string
	// Batch is the mini-batch size.
	Batch int
	// Segments alternates units and parallel regions; the first and last
	// segments are always units, and two parallel regions are never
	// adjacent.
	Segments []Segment
}

// Units returns every unit in execution order — real weighted layers and
// virtual junction units alike (paths of a parallel segment are concatenated
// in path order). This is the sequence the partitioner assigns states to.
func (n *Network) Units() []WeightedLayer {
	return n.AppendUnits(make([]WeightedLayer, 0, n.NumUnits()))
}

// AppendUnits appends Units() to dst and returns the extended slice, so a
// caller with a reusable buffer copies the units without allocating.
func (n *Network) AppendUnits(dst []WeightedLayer) []WeightedLayer {
	for _, s := range n.Segments {
		if s.Unit != nil {
			dst = append(dst, *s.Unit)
			continue
		}
		for _, p := range s.Paths {
			dst = append(dst, p...)
		}
	}
	return dst
}

// NumUnits returns len(n.Units()) without copying the units.
func (n *Network) NumUnits() int {
	count := 0
	for _, s := range n.Segments {
		if s.Unit != nil {
			count++
			continue
		}
		for _, p := range s.Paths {
			count += len(p)
		}
	}
	return count
}

// Layers returns the real weighted layers (CONV and FC) in execution order,
// excluding virtual junction units — the layers Figure 7 of the paper
// reports partition types for.
func (n *Network) Layers() []WeightedLayer {
	var out []WeightedLayer
	for _, l := range n.Units() {
		if !l.Virtual {
			out = append(out, l)
		}
	}
	return out
}

// TrainingFLOPs returns the total per-iteration FLOPs across all weighted
// layers.
func (n *Network) TrainingFLOPs() int64 {
	var total int64
	for _, l := range n.Layers() {
		total += tensor.TrainingFLOPs(l.Dims)
	}
	return total
}

// ParameterCount returns the total kernel elements across weighted layers.
func (n *Network) ParameterCount() int64 {
	var total int64
	for _, l := range n.Layers() {
		total += l.Dims.AW()
	}
	return total
}

// HasParallel reports whether the network contains any multi-path segment.
func (n *Network) HasParallel() bool {
	for _, s := range n.Segments {
		if s.IsParallel() {
			return true
		}
	}
	return false
}

// Validate checks the structural invariants documented on Segments.
func (n *Network) Validate() error {
	if len(n.Segments) == 0 {
		return fmt.Errorf("dnn: network %q has no segments", n.Name)
	}
	if n.Segments[0].IsParallel() {
		return fmt.Errorf("dnn: network %q starts with a parallel segment", n.Name)
	}
	if n.Segments[len(n.Segments)-1].IsParallel() {
		return fmt.Errorf("dnn: network %q ends with a parallel segment", n.Name)
	}
	for i := 1; i < len(n.Segments); i++ {
		if n.Segments[i].IsParallel() && n.Segments[i-1].IsParallel() {
			return fmt.Errorf("dnn: network %q has adjacent parallel segments at %d", n.Name, i)
		}
	}
	for i, s := range n.Segments {
		if s.IsParallel() {
			if len(s.Paths) < 2 {
				return fmt.Errorf("dnn: network %q parallel segment %d has %d path(s), want >= 2", n.Name, i, len(s.Paths))
			}
			empty := 0
			for _, p := range s.Paths {
				if len(p) == 0 {
					empty++
				}
			}
			if empty > 1 {
				return fmt.Errorf("dnn: network %q parallel segment %d has %d identity paths", n.Name, i, empty)
			}
			continue
		}
		if err := s.Unit.Dims.Validate(); err != nil {
			return fmt.Errorf("dnn: network %q unit %q: %w", n.Name, s.Unit.Name, err)
		}
	}
	return nil
}

// Linearize returns a copy of the network with every parallel segment
// flattened into a chain of units (paths concatenated in order). This is
// how the HyPar baseline — which "can only handle DNN architectures with
// linear structure" (Section 1) — sees a multi-path model.
func (n *Network) Linearize() *Network {
	lin := &Network{Name: n.Name + "-linear", Batch: n.Batch}
	for _, l := range n.Units() {
		l := l
		lin.Segments = append(lin.Segments, Segment{Unit: &l})
	}
	return lin
}

// Edges returns every inter-layer boundary of the network as (producer,
// consumer) pairs of Units() indices, including the edges into, inside and
// out of parallel paths. An identity shortcut contributes a direct edge
// from the unit before the region to the merge unit. The edges are
// counted first, so the result is one allocation.
func (n *Network) Edges() [][2]int {
	count := 0
	for i, s := range n.Segments[1:] {
		if s.Unit != nil && n.Segments[i].Unit != nil {
			count++ // series edge; a merge unit's edges are its paths' last
		}
		for _, p := range s.Paths {
			count += len(p) + 1
		}
	}
	edges := make([][2]int, 0, count)
	prev, idx := 0, 1 // the first segment is unit 0
	for i := 1; i < len(n.Segments); i++ {
		s := n.Segments[i]
		if s.Unit != nil {
			edges = append(edges, [2]int{prev, idx})
			prev = idx
			idx++
			continue
		}
		// The merge unit follows every unit of the region's paths.
		merge := idx
		for _, p := range s.Paths {
			merge += len(p)
		}
		for _, p := range s.Paths {
			if len(p) == 0 {
				edges = append(edges, [2]int{prev, merge})
				continue
			}
			edges = append(edges, [2]int{prev, idx})
			for k := 1; k < len(p); k++ {
				edges = append(edges, [2]int{idx, idx + 1})
				idx++
			}
			edges = append(edges, [2]int{idx, merge})
			idx++
		}
		prev, idx = merge, merge+1
		i++ // the merge unit's edges are its paths' last
	}
	return edges
}

// ExtractNetwork reduces an inferred Graph to its series-parallel Network of
// weighted layers. Non-weighted operators (activations, pooling,
// normalization, flatten, dropout, element-wise addition) are absorbed:
// they inherit their input's partition and only influence the cost model
// through the shapes they produce (Section 3.3).
//
// The reduction supports series-parallel graphs whose parallel regions are
// path-disjoint between a branch layer and a merge layer — the "emerging
// multi-path patterns in modern DNNs such as ResNet" the paper targets.
// Arbitrary non-series-parallel DAGs are rejected with an error.
func ExtractNetwork(g *Graph) (*Network, error) {
	if !g.Inferred() {
		return nil, fmt.Errorf("dnn: graph %q must be inferred before extraction", g.Name)
	}

	// Build the reduced DAG over weighted nodes plus a virtual source (the
	// graph input). For every node we find its nearest weighted ancestors,
	// skipping through non-weighted operators.
	type red struct {
		succs map[NodeID]bool
		preds map[NodeID]bool
	}
	const source = NodeID(-1)
	// Residual Add and inception Concat merges participate in the reduced
	// DAG as virtual junction units: between consecutive identity-shortcut
	// blocks (or inception modules) there is no weighted layer to carry the
	// merge state, so the junction itself holds it (the L_i / L_{i+1}
	// endpoints of Figure 4).
	stateful := func(k Kind) bool { return k.Weighted() || k == KindAdd || k == KindConcat }
	reduced := map[NodeID]*red{source: {succs: map[NodeID]bool{}, preds: map[NodeID]bool{}}}
	for _, n := range g.Nodes() {
		if stateful(n.Layer.Op.Kind()) {
			reduced[n.ID] = &red{succs: map[NodeID]bool{}, preds: map[NodeID]bool{}}
		}
	}
	// nearest[id] = set of stateful ancestors feeding node id's output
	// (or the virtual source).
	nearest := make(map[NodeID][]NodeID)
	for _, n := range g.Nodes() {
		switch {
		case n.Layer.Op.Kind() == KindInput:
			nearest[n.ID] = []NodeID{source}
		case stateful(n.Layer.Op.Kind()):
			for _, in := range n.Inputs {
				for _, a := range nearest[in] {
					reduced[a].succs[n.ID] = true
					reduced[n.ID].preds[a] = true
				}
			}
			nearest[n.ID] = []NodeID{n.ID}
		default:
			seen := map[NodeID]bool{}
			var anc []NodeID
			for _, in := range n.Inputs {
				for _, a := range nearest[in] {
					if !seen[a] {
						seen[a] = true
						anc = append(anc, a)
					}
				}
			}
			nearest[n.ID] = anc
		}
	}

	sortedSuccs := func(id NodeID) []NodeID {
		var out []NodeID
		for s := range reduced[id].succs {
			out = append(out, s)
		}
		slices.Sort(out)
		return out
	}

	wl := func(id NodeID) (*WeightedLayer, error) {
		node := g.Node(id)
		if k := node.Layer.Op.Kind(); k == KindAdd || k == KindConcat {
			out := node.Out
			if out.Rank() != 4 && out.Rank() != 2 {
				return nil, fmt.Errorf("dnn: add node %q has unsupported rank %d", node.Layer.Name, out.Rank())
			}
			h, w := 1, 1
			if out.Rank() == 4 {
				h, w = out[2], out[3]
			}
			return &WeightedLayer{
				Name:    node.Layer.Name,
				Kind:    node.Layer.Op.Kind(),
				Dims:    tensor.Conv(out[0], out[1], out[1], h, w, h, w, 1, 1),
				Virtual: true,
			}, nil
		}
		d, ok := g.layerDims(node)
		if !ok {
			return nil, fmt.Errorf("dnn: node %q is not weighted", node.Layer.Name)
		}
		return &WeightedLayer{Name: node.Layer.Name, Kind: node.Layer.Op.Kind(), Dims: d}, nil
	}

	net := &Network{Name: g.Name, Batch: g.BatchSize()}

	// Walk the reduced DAG from the source, emitting units and parallel
	// regions.
	cur := source
	for {
		succs := sortedSuccs(cur)
		if len(succs) == 0 {
			break
		}
		if len(succs) == 1 && len(reduced[succs[0]].preds) == 1 {
			// Plain series edge.
			u, err := wl(succs[0])
			if err != nil {
				return nil, err
			}
			net.Segments = append(net.Segments, Segment{Unit: u})
			cur = succs[0]
			continue
		}
		// Branch point: walk each outgoing path until the common merge node
		// (in-degree >= 2 in the reduced DAG).
		merge := NodeID(-2)
		var paths []Chain
		for _, first := range succs {
			path := Chain{}
			node := first
			for len(reduced[node].preds) < 2 {
				u, err := wl(node)
				if err != nil {
					return nil, err
				}
				path = append(path, *u)
				next := sortedSuccs(node)
				if len(next) != 1 {
					return nil, fmt.Errorf("dnn: graph %q is not series-parallel: layer %q has %d successors inside a parallel region",
						g.Name, g.Node(node).Layer.Name, len(next))
				}
				node = next[0]
			}
			if merge == NodeID(-2) {
				merge = node
			} else if merge != node {
				return nil, fmt.Errorf("dnn: graph %q is not series-parallel: paths from %v merge at different layers", g.Name, cur)
			}
			paths = append(paths, path)
		}
		if len(reduced[merge].preds) != len(paths) {
			return nil, fmt.Errorf("dnn: graph %q is not series-parallel: merge layer %q has extra predecessors",
				g.Name, g.Node(merge).Layer.Name)
		}
		if cur == source {
			return nil, fmt.Errorf("dnn: graph %q branches before any weighted layer", g.Name)
		}
		net.Segments = append(net.Segments, Segment{Paths: paths})
		u, err := wl(merge)
		if err != nil {
			return nil, err
		}
		net.Segments = append(net.Segments, Segment{Unit: u})
		cur = merge
	}

	if len(net.Segments) == 0 {
		return nil, fmt.Errorf("dnn: graph %q contains no weighted layers", g.Name)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}
