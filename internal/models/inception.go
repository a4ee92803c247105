package models

import (
	"accpar/internal/dnn"
	"accpar/internal/tensor"
)

// This file builds a compact GoogLeNet-style inception network
// (Szegedy et al. 2015). It is not one of the paper's nine evaluation
// DNNs; it exists to exercise the multi-path search (Section 5.2) on
// modules with more than two parallel paths and concatenation merges —
// the general "emerging multi-path patterns" the paper targets beyond
// ResNet's two-path blocks.

// inceptionModule adds a four-path module: 1×1; 1×1→3×3; 1×1→5×5; and
// pool→1×1, concatenated along channels.
func inceptionModule(g *dnn.Graph, name string, in dnn.NodeID, c1, c3reduce, c3, c5reduce, c5, cpool int) dnn.NodeID {
	p1 := convRelu(g, name+"_1x1", in, c1, 1, 1, 0)

	p3 := convRelu(g, name+"_3x3r", in, c3reduce, 1, 1, 0)
	p3 = convRelu(g, name+"_3x3", p3, c3, 3, 1, 1)

	p5 := convRelu(g, name+"_5x5r", in, c5reduce, 1, 1, 0)
	p5 = convRelu(g, name+"_5x5", p5, c5, 5, 1, 2)

	pp := g.Add(dnn.Layer{Name: name + "_pool", Op: dnn.PoolOp{Max: true, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}}, in)
	pp = convRelu(g, name+"_poolproj", pp, cpool, 1, 1, 0)

	return g.Add(dnn.Layer{Name: name + "_concat", Op: dnn.ConcatOp{}}, p1, p3, p5, pp)
}

// Inception builds the compact inception network: a convolutional stem,
// three inception modules with a spatial downsample between the second and
// third, and a classifier head.
func Inception(batch int) (*dnn.Graph, error) {
	g := dnn.NewGraph("inception")
	in := g.Input("data", tensor.NewShape(batch, 3, 224, 224))
	x := convRelu(g, "cv1", in, 64, 7, 2, 3) // 64×112×112
	x = maxPool(g, "pool1", x, 2, 2)         // 64×56×56
	x = convRelu(g, "cv2", x, 192, 3, 1, 1)  // 192×56×56
	x = maxPool(g, "pool2", x, 2, 2)         // 192×28×28

	x = inceptionModule(g, "inc3a", x, 64, 96, 128, 16, 32, 32)   // 256×28×28
	x = inceptionModule(g, "inc3b", x, 128, 128, 192, 32, 96, 64) // 480×28×28
	x = maxPool(g, "pool3", x, 2, 2)                              // 480×14×14
	x = inceptionModule(g, "inc4a", x, 192, 96, 208, 16, 48, 64)  // 512×14×14

	x = g.Add(dnn.Layer{Name: "gap", Op: dnn.PoolOp{Global: true}}, x)
	x = g.Add(dnn.Flatten("flat"), x)
	x = g.Add(dnn.Layer{Name: "fc", Op: dnn.FCOp{OutFeatures: 1000}}, x)
	g.Add(dnn.Softmax("prob"), x)
	if err := g.Infer(); err != nil {
		return nil, err
	}
	return g, nil
}

func init() {
	registry["inception"] = &model{build: Inception}
}
