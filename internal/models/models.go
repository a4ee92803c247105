// Package models provides the nine evaluation DNNs of the AccPar paper
// (Section 6.1): LeNet (MNIST-shaped input) and AlexNet, the VGG series
// (11/13/16/19) and the ResNet series (18/34/50), all with ImageNet-shaped
// 224×224 RGB input. Each builder returns a shape-inferred dnn.Graph.
package models

import (
	"fmt"
	"slices"
	"sync"

	"accpar/internal/dnn"
	"accpar/internal/tensor"
)

// Builder constructs a model graph for a given mini-batch size.
type Builder func(batch int) (*dnn.Graph, error)

// model is one registry entry: the builder of its graph and the network
// template BuildNetwork clones, built from the graph on first use.
type model struct {
	build Builder

	once sync.Once
	tmpl *dnn.Network
	err  error
}

// registry maps model names to their entries. It holds one template per
// name at most, so it needs no bound.
var registry = map[string]*model{
	"lenet":    {build: LeNet},
	"alexnet":  {build: AlexNet},
	"vgg11":    {build: VGG11},
	"vgg13":    {build: VGG13},
	"vgg16":    {build: VGG16},
	"vgg19":    {build: VGG19},
	"resnet18": {build: ResNet18},
	"resnet34": {build: ResNet34},
	"resnet50": {build: ResNet50},
}

// Names returns the registered model names in sorted order.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

// EvaluationOrder returns the nine models in the order the paper's figures
// present them.
func EvaluationOrder() []string {
	return []string{"lenet", "alexnet", "vgg11", "vgg13", "vgg16", "vgg19", "resnet18", "resnet34", "resnet50"}
}

// lookup returns the named entry, or the input error Build reports.
func lookup(name string, batch int) (*model, error) {
	m, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown model %q (have %v)", name, Names())
	}
	if batch < 1 {
		return nil, fmt.Errorf("models: batch %d must be at least 1", batch)
	}
	return m, nil
}

// Build constructs the named model with the given batch size.
func Build(name string, batch int) (*dnn.Graph, error) {
	m, err := lookup(name, batch)
	if err != nil {
		return nil, err
	}
	return m.build(batch)
}

// BuildNetwork returns the named model's series-parallel weighted-layer
// network at the given batch size: the network dnn.ExtractNetwork takes
// from Build(name, batch), as a fresh copy the caller owns.
//
// The graph is built and extracted once per model, at batch 1, and kept
// as a template; each call clones it and stamps the batch. That is exact
// because the batch enters shape inference only as dimension 0, which
// every operator passes through, and reaches a weighted layer only as
// its LayerDims.B (virtual junction units take it from their output's
// dimension 0 too).
func BuildNetwork(name string, batch int) (*dnn.Network, error) {
	m, err := lookup(name, batch)
	if err != nil {
		return nil, err
	}
	return m.network(batch)
}

// network clones m's template at batch, building the template on the
// first call. Concurrent first calls build it once.
func (m *model) network(batch int) (*dnn.Network, error) {
	m.once.Do(func() {
		g, err := m.build(1)
		if err != nil {
			m.err = err
			return
		}
		net, err := dnn.ExtractNetwork(g)
		if err != nil {
			m.err = err
			return
		}
		m.tmpl = withBatch(net, 1) // compact: one unit slab, no graph
	})
	if m.err != nil {
		return nil, m.err
	}
	return withBatch(m.tmpl, batch), nil
}

// withBatch deep-copies net with every unit's batch set to batch. All
// units live in one slab, the parallel segments' paths in another, and
// each chain is a view of the unit slab capped at its own length, so an
// append to one chain cannot reach its neighbour. An identity shortcut
// stays an empty, non-nil chain, as ExtractNetwork makes it.
func withBatch(net *dnn.Network, batch int) *dnn.Network {
	units, paths := 0, 0
	for _, s := range net.Segments {
		if s.Unit != nil {
			units++
		}
		paths += len(s.Paths)
		for _, p := range s.Paths {
			units += len(p)
		}
	}
	slab := make([]dnn.WeightedLayer, 0, units)
	chains := make([]dnn.Chain, 0, paths)
	out := &dnn.Network{Name: net.Name, Batch: batch, Segments: make([]dnn.Segment, len(net.Segments))}
	for i, s := range net.Segments {
		if s.Unit != nil {
			slab = append(slab, *s.Unit)
			out.Segments[i].Unit = &slab[len(slab)-1]
			continue
		}
		first := len(chains)
		for _, p := range s.Paths {
			lo := len(slab)
			slab = append(slab, p...)
			chains = append(chains, slab[lo:len(slab):len(slab)])
		}
		out.Segments[i].Paths = chains[first:len(chains):len(chains)]
	}
	for i := range slab {
		slab[i].Dims.B = batch
	}
	return out
}

// conv is a builder-local shorthand adding conv+ReLU.
func convRelu(g *dnn.Graph, name string, in dnn.NodeID, out, k, stride, pad int) dnn.NodeID {
	c := g.Add(dnn.Layer{Name: name, Op: dnn.ConvOp{
		OutChannels: out, KH: k, KW: k, StrideH: stride, StrideW: stride, PadH: pad, PadW: pad,
	}}, in)
	return g.Add(dnn.ReLU(name+"_relu"), c)
}

func maxPool(g *dnn.Graph, name string, in dnn.NodeID, k, stride int) dnn.NodeID {
	return g.Add(dnn.Layer{Name: name, Op: dnn.PoolOp{Max: true, KH: k, KW: k, StrideH: stride, StrideW: stride}}, in)
}

// LeNet builds the LeNet-5 convolutional network on 28×28 MNIST input
// (LeCun et al. 1998), padded in the first layer to preserve the classic
// 28×28 feature map.
func LeNet(batch int) (*dnn.Graph, error) {
	g := dnn.NewGraph("lenet")
	in := g.Input("data", tensor.NewShape(batch, 1, 28, 28))
	x := convRelu(g, "cv1", in, 6, 5, 1, 2) // 6×28×28
	x = maxPool(g, "pool1", x, 2, 2)        // 6×14×14
	x = convRelu(g, "cv2", x, 16, 5, 1, 0)  // 16×10×10
	x = maxPool(g, "pool2", x, 2, 2)        // 16×5×5
	x = g.Add(dnn.Flatten("flat"), x)       // 400
	x = g.Add(dnn.Layer{Name: "fc1", Op: dnn.FCOp{OutFeatures: 120}}, x)
	x = g.Add(dnn.ReLU("fc1_relu"), x)
	x = g.Add(dnn.Layer{Name: "fc2", Op: dnn.FCOp{OutFeatures: 84}}, x)
	x = g.Add(dnn.ReLU("fc2_relu"), x)
	x = g.Add(dnn.Layer{Name: "fc3", Op: dnn.FCOp{OutFeatures: 10}}, x)
	g.Add(dnn.Softmax("prob"), x)
	if err := g.Infer(); err != nil {
		return nil, err
	}
	return g, nil
}

// AlexNet builds the single-tower AlexNet (Krizhevsky et al. 2012, "one
// weird trick" variant): five convolutional layers (cv1..cv5) and three
// fully-connected layers (fc1..fc3), matching the weighted-layer names in
// Figure 7 of the AccPar paper.
func AlexNet(batch int) (*dnn.Graph, error) {
	g := dnn.NewGraph("alexnet")
	in := g.Input("data", tensor.NewShape(batch, 3, 224, 224))
	x := convRelu(g, "cv1", in, 64, 11, 4, 2) // 64×55×55
	x = g.Add(dnn.LRN("lrn1"), x)
	x = maxPool(g, "pool1", x, 3, 2)        // 64×27×27
	x = convRelu(g, "cv2", x, 192, 5, 1, 2) // 192×27×27
	x = g.Add(dnn.LRN("lrn2"), x)
	x = maxPool(g, "pool2", x, 3, 2)        // 192×13×13
	x = convRelu(g, "cv3", x, 384, 3, 1, 1) // 384×13×13
	x = convRelu(g, "cv4", x, 256, 3, 1, 1) // 256×13×13
	x = convRelu(g, "cv5", x, 256, 3, 1, 1) // 256×13×13
	x = maxPool(g, "pool5", x, 3, 2)        // 256×6×6
	x = g.Add(dnn.Flatten("flat"), x)       // 9216
	x = g.Add(dnn.Dropout("drop1"), x)
	x = g.Add(dnn.Layer{Name: "fc1", Op: dnn.FCOp{OutFeatures: 4096}}, x)
	x = g.Add(dnn.ReLU("fc1_relu"), x)
	x = g.Add(dnn.Dropout("drop2"), x)
	x = g.Add(dnn.Layer{Name: "fc2", Op: dnn.FCOp{OutFeatures: 4096}}, x)
	x = g.Add(dnn.ReLU("fc2_relu"), x)
	x = g.Add(dnn.Layer{Name: "fc3", Op: dnn.FCOp{OutFeatures: 1000}}, x)
	g.Add(dnn.Softmax("prob"), x)
	if err := g.Infer(); err != nil {
		return nil, err
	}
	return g, nil
}

// vggConfigs gives, per VGG variant, the number of 3×3 conv layers in each
// of the five blocks (Simonyan & Zisserman 2014, configurations A/B/D/E).
var vggConfigs = map[string][]int{
	"vgg11": {1, 1, 2, 2, 2},
	"vgg13": {2, 2, 2, 2, 2},
	"vgg16": {2, 2, 3, 3, 3},
	"vgg19": {2, 2, 4, 4, 4},
}

// vggChannels are the output channels of the five blocks.
var vggChannels = [5]int{64, 128, 256, 512, 512}

func buildVGG(name string, batch int) (*dnn.Graph, error) {
	cfg, ok := vggConfigs[name]
	if !ok {
		return nil, fmt.Errorf("models: unknown VGG variant %q", name)
	}
	g := dnn.NewGraph(name)
	x := g.Input("data", tensor.NewShape(batch, 3, 224, 224))
	cv := 0
	for blk, reps := range cfg {
		for r := 0; r < reps; r++ {
			cv++
			x = convRelu(g, fmt.Sprintf("cv%d", cv), x, vggChannels[blk], 3, 1, 1)
		}
		x = maxPool(g, fmt.Sprintf("pool%d", blk+1), x, 2, 2)
	}
	x = g.Add(dnn.Flatten("flat"), x) // 512×7×7 = 25088
	x = g.Add(dnn.Layer{Name: "fc1", Op: dnn.FCOp{OutFeatures: 4096}}, x)
	x = g.Add(dnn.ReLU("fc1_relu"), x)
	x = g.Add(dnn.Dropout("drop1"), x)
	x = g.Add(dnn.Layer{Name: "fc2", Op: dnn.FCOp{OutFeatures: 4096}}, x)
	x = g.Add(dnn.ReLU("fc2_relu"), x)
	x = g.Add(dnn.Dropout("drop2"), x)
	x = g.Add(dnn.Layer{Name: "fc3", Op: dnn.FCOp{OutFeatures: 1000}}, x)
	g.Add(dnn.Softmax("prob"), x)
	if err := g.Infer(); err != nil {
		return nil, err
	}
	return g, nil
}

// VGG11 builds VGG configuration A (8 conv + 3 FC weighted layers).
func VGG11(batch int) (*dnn.Graph, error) { return buildVGG("vgg11", batch) }

// VGG13 builds VGG configuration B (10 conv + 3 FC weighted layers).
func VGG13(batch int) (*dnn.Graph, error) { return buildVGG("vgg13", batch) }

// VGG16 builds VGG configuration D (13 conv + 3 FC weighted layers).
func VGG16(batch int) (*dnn.Graph, error) { return buildVGG("vgg16", batch) }

// VGG19 builds VGG configuration E (16 conv + 3 FC weighted layers).
func VGG19(batch int) (*dnn.Graph, error) { return buildVGG("vgg19", batch) }
