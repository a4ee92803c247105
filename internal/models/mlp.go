package models

import (
	"fmt"

	"accpar/internal/dnn"
	"accpar/internal/tensor"
)

// MLP builds a deep multilayer perceptron on flattened 784-feature input
// (MNIST-shaped): an all-FC model that stresses the Type-II/III model
// partitions, the regime where OWT's "model parallelism for FC" intuition
// originated. It is an extension model, not one of the paper's nine.
func MLP(batch int) (*dnn.Graph, error) {
	g := dnn.NewGraph("mlp")
	widths := []int{784, 4096, 2048, 1024, 512, 10}
	x := g.Input("data", tensor.NewShape(batch, widths[0]))
	for i := 1; i < len(widths); i++ {
		x = g.Add(dnn.Layer{Name: fmt.Sprintf("fc%d", i), Op: dnn.FCOp{OutFeatures: widths[i]}}, x)
		if i < len(widths)-1 {
			x = g.Add(dnn.ReLU(fmt.Sprintf("fc%d_relu", i)), x)
		}
	}
	g.Add(dnn.Softmax("prob"), x)
	if err := g.Infer(); err != nil {
		return nil, err
	}
	return g, nil
}

func init() {
	registry["mlp"] = &model{build: MLP}
}
