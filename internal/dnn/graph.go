package dnn

import (
	"fmt"

	"accpar/internal/tensor"
)

// NodeID identifies a node within one Graph.
type NodeID int

// Node is one operator instance in a Graph.
type Node struct {
	ID     NodeID
	Layer  Layer
	Inputs []NodeID
	// Out is the inferred output shape; populated by Graph.Infer.
	Out tensor.Shape
}

// Graph is a directed acyclic graph of layers. Build graphs with NewGraph
// and Add; call Infer to run shape inference before handing the graph to
// the partitioner.
type Graph struct {
	// Name labels the model (e.g. "vgg16").
	Name  string
	nodes []*Node
	names map[string]struct{}
	// inferred records whether Infer has completed successfully.
	inferred bool
}

// NewGraph returns an empty graph with the given model name.
func NewGraph(name string) *Graph {
	return &Graph{Name: name, names: make(map[string]struct{})}
}

// Add appends a node computing layer from the given input nodes and returns
// its ID. It panics on duplicate layer names or dangling input references,
// because those are always construction bugs in model-builder code.
func (g *Graph) Add(layer Layer, inputs ...NodeID) NodeID {
	if layer.Name == "" {
		panic("dnn: layer with empty name")
	}
	if _, dup := g.names[layer.Name]; dup {
		panic(fmt.Sprintf("dnn: duplicate layer name %q", layer.Name))
	}
	for _, in := range inputs {
		if int(in) < 0 || int(in) >= len(g.nodes) {
			panic(fmt.Sprintf("dnn: layer %q references unknown input node %d", layer.Name, in))
		}
	}
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, &Node{ID: id, Layer: layer, Inputs: append([]NodeID(nil), inputs...)})
	g.names[layer.Name] = struct{}{}
	g.inferred = false
	return id
}

// Input adds the graph input placeholder and returns its ID.
func (g *Graph) Input(name string, shape tensor.Shape) NodeID {
	return g.Add(Layer{Name: name, Op: InputOp{Shape: shape}})
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id NodeID) *Node {
	if int(id) < 0 || int(id) >= len(g.nodes) {
		panic(fmt.Sprintf("dnn: node %d out of range [0,%d)", id, len(g.nodes)))
	}
	return g.nodes[id]
}

// Nodes returns the nodes in insertion order (which is a topological order,
// since Add only accepts already-present inputs).
func (g *Graph) Nodes() []*Node { return g.nodes }

// Infer runs shape inference over the whole graph in topological order and
// validates operator compatibility. It must be called (once) after
// construction; the partitioner and simulator require inferred shapes.
func (g *Graph) Infer() error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("dnn: graph %q is empty", g.Name)
	}
	for _, n := range g.nodes {
		in := make([]tensor.Shape, len(n.Inputs))
		for i, id := range n.Inputs {
			src := g.nodes[id]
			if src.Out == nil {
				return fmt.Errorf("dnn: node %q consumes %q before its shape is known", n.Layer.Name, src.Layer.Name)
			}
			in[i] = src.Out
		}
		out, err := n.Layer.Op.OutShape(in)
		if err != nil {
			return fmt.Errorf("dnn: graph %q, layer %q: %w", g.Name, n.Layer.Name, err)
		}
		n.Out = out
	}
	g.inferred = true
	return nil
}

// Inferred reports whether Infer has completed successfully.
func (g *Graph) Inferred() bool { return g.inferred }

// BatchSize returns the batch dimension of the graph input. It panics if the
// graph has no input node.
func (g *Graph) BatchSize() int {
	for _, n := range g.nodes {
		if n.Layer.Op.Kind() == KindInput {
			return n.Layer.Op.(InputOp).Shape[0]
		}
	}
	panic(fmt.Sprintf("dnn: graph %q has no input node", g.Name))
}

// ParameterCount returns the total number of trainable kernel/weight
// elements in the model (bias terms are omitted, as in the paper's tensor
// formulation).
func (g *Graph) ParameterCount() int64 {
	var total int64
	for _, n := range g.nodes {
		d, ok := g.layerDims(n)
		if !ok {
			continue
		}
		total += d.AW()
	}
	return total
}

// TrainingFLOPs returns the total FLOPs of one training iteration over all
// weighted layers.
func (g *Graph) TrainingFLOPs() int64 {
	var total int64
	for _, n := range g.nodes {
		d, ok := g.layerDims(n)
		if !ok {
			continue
		}
		total += tensor.TrainingFLOPs(d)
	}
	return total
}

// layerDims derives the cost-model dims of a weighted node from the inferred
// shapes. Returns ok=false for non-weighted nodes.
func (g *Graph) layerDims(n *Node) (tensor.LayerDims, bool) {
	if !g.inferred {
		panic("dnn: layerDims before Infer")
	}
	switch op := n.Layer.Op.(type) {
	case ConvOp:
		in := g.nodes[n.Inputs[0]].Out
		out := n.Out
		return tensor.Conv(in[0], in[1], out[1], in[2], in[3], out[2], out[3], op.KH, op.KW), true
	case FCOp:
		in := g.nodes[n.Inputs[0]].Out
		out := n.Out
		return tensor.FC(in[0], in[1], out[1]), true
	default:
		return tensor.LayerDims{}, false
	}
}
