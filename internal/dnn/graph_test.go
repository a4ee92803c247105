package dnn

import (
	"strings"
	"testing"

	"accpar/internal/tensor"
)

// tinyLinear builds input→conv→relu→pool→flatten→fc→softmax.
func tinyLinear(t *testing.T, batch int) *Graph {
	t.Helper()
	g := NewGraph("tiny")
	in := g.Input("data", tensor.NewShape(batch, 3, 8, 8))
	cv := g.Add(Layer{Name: "cv1", Op: ConvOp{OutChannels: 4, KH: 3, KW: 3, PadH: 1, PadW: 1}}, in)
	r := g.Add(ReLU("relu1"), cv)
	p := g.Add(Layer{Name: "pool1", Op: PoolOp{Max: true, KH: 2, KW: 2}}, r)
	f := g.Add(Flatten("flat"), p)
	fc := g.Add(Layer{Name: "fc1", Op: FCOp{OutFeatures: 10}}, f)
	g.Add(Softmax("prob"), fc)
	if err := g.Infer(); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return g
}

// nodeNamed returns g's node with the given layer name.
func nodeNamed(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.Layer.Name == name {
			return n
		}
	}
	t.Fatalf("missing node %q", name)
	return nil
}

// tinyResidual builds a two-path block: cv1 → {identity, cv2→cv3} → add → cv4.
func tinyResidual(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph("tinyres")
	in := g.Input("data", tensor.NewShape(2, 4, 8, 8))
	cv1 := g.Add(Layer{Name: "cv1", Op: ConvOp{OutChannels: 4, KH: 3, KW: 3, PadH: 1, PadW: 1}}, in)
	cv2 := g.Add(Layer{Name: "cv2", Op: ConvOp{OutChannels: 4, KH: 3, KW: 3, PadH: 1, PadW: 1}}, cv1)
	cv3 := g.Add(Layer{Name: "cv3", Op: ConvOp{OutChannels: 4, KH: 3, KW: 3, PadH: 1, PadW: 1}}, cv2)
	add := g.Add(Layer{Name: "add", Op: AddOp{}}, cv1, cv3)
	g.Add(Layer{Name: "cv4", Op: ConvOp{OutChannels: 8, KH: 3, KW: 3, PadH: 1, PadW: 1}}, add)
	if err := g.Infer(); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	return g
}

func TestShapeInferenceLinear(t *testing.T) {
	g := tinyLinear(t, 2)
	checks := map[string]tensor.Shape{
		"cv1":   tensor.NewShape(2, 4, 8, 8),
		"pool1": tensor.NewShape(2, 4, 4, 4),
		"flat":  tensor.NewShape(2, 64),
		"fc1":   tensor.NewShape(2, 10),
		"prob":  tensor.NewShape(2, 10),
	}
	for name, want := range checks {
		n := nodeNamed(t, g, name)
		if !n.Out.Equal(want) {
			t.Errorf("%s shape = %v, want %v", name, n.Out, want)
		}
	}
	if got := g.BatchSize(); got != 2 {
		t.Errorf("BatchSize = %d, want 2", got)
	}
	net, err := ExtractNetwork(g)
	if err != nil {
		t.Fatalf("ExtractNetwork: %v", err)
	}
	if got := len(net.Layers()); got != 2 {
		t.Errorf("weighted layers = %d, want 2", got)
	}
}

func TestConvStrideAndPadding(t *testing.T) {
	g := NewGraph("s")
	in := g.Input("data", tensor.NewShape(1, 3, 224, 224))
	// AlexNet cv1: 11x11, stride 4, pad 2 → 55×55.
	g.Add(Layer{Name: "cv1", Op: ConvOp{OutChannels: 64, KH: 11, KW: 11, StrideH: 4, StrideW: 4, PadH: 2, PadW: 2}}, in)
	if err := g.Infer(); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	n := nodeNamed(t, g, "cv1")
	if !n.Out.Equal(tensor.NewShape(1, 64, 55, 55)) {
		t.Errorf("cv1 out = %v, want (1, 64, 55, 55)", n.Out)
	}
}

func TestGlobalPool(t *testing.T) {
	g := NewGraph("gp")
	in := g.Input("data", tensor.NewShape(1, 16, 7, 7))
	g.Add(Layer{Name: "gap", Op: PoolOp{Global: true}}, in)
	if err := g.Infer(); err != nil {
		t.Fatalf("Infer: %v", err)
	}
	n := nodeNamed(t, g, "gap")
	if !n.Out.Equal(tensor.NewShape(1, 16, 1, 1)) {
		t.Errorf("gap out = %v", n.Out)
	}
}

func TestInferErrors(t *testing.T) {
	t.Run("fc on 4d input", func(t *testing.T) {
		g := NewGraph("bad")
		in := g.Input("data", tensor.NewShape(1, 3, 8, 8))
		g.Add(Layer{Name: "fc", Op: FCOp{OutFeatures: 10}}, in)
		if err := g.Infer(); err == nil {
			t.Error("FC on rank-4 input must fail inference")
		}
	})
	t.Run("add shape mismatch", func(t *testing.T) {
		g := NewGraph("bad")
		in := g.Input("data", tensor.NewShape(1, 3, 8, 8))
		a := g.Add(Layer{Name: "cva", Op: ConvOp{OutChannels: 4, KH: 1, KW: 1}}, in)
		b := g.Add(Layer{Name: "cvb", Op: ConvOp{OutChannels: 8, KH: 1, KW: 1}}, in)
		g.Add(Layer{Name: "add", Op: AddOp{}}, a, b)
		if err := g.Infer(); err == nil {
			t.Error("Add with mismatched channels must fail inference")
		}
	})
	t.Run("oversized kernel", func(t *testing.T) {
		g := NewGraph("bad")
		in := g.Input("data", tensor.NewShape(1, 3, 4, 4))
		g.Add(Layer{Name: "cv", Op: ConvOp{OutChannels: 4, KH: 9, KW: 9}}, in)
		if err := g.Infer(); err == nil {
			t.Error("kernel larger than padded input must fail inference")
		}
	})
	t.Run("empty graph", func(t *testing.T) {
		if err := NewGraph("empty").Infer(); err == nil {
			t.Error("empty graph must fail inference")
		}
	})
}

func TestAddPanics(t *testing.T) {
	t.Run("duplicate name", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("duplicate layer name must panic")
			}
		}()
		g := NewGraph("dup")
		g.Input("data", tensor.NewShape(1, 2))
		g.Add(Layer{Name: "data", Op: FCOp{OutFeatures: 2}}, 0)
	})
	t.Run("dangling input", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("dangling input reference must panic")
			}
		}()
		g := NewGraph("dangle")
		g.Add(Layer{Name: "fc", Op: FCOp{OutFeatures: 2}}, NodeID(7))
	})
}

// TestLayerDimsOf: the extracted network carries each weighted layer's
// cost-model dims, derived from the inferred shapes.
func TestLayerDimsOf(t *testing.T) {
	net, err := ExtractNetwork(tinyLinear(t, 2))
	if err != nil {
		t.Fatalf("ExtractNetwork: %v", err)
	}
	layers := net.Layers()
	if len(layers) != 2 {
		t.Fatalf("Layers = %+v, want [cv1 fc1]", layers)
	}
	if want := tensor.Conv(2, 3, 4, 8, 8, 8, 8, 3, 3); layers[0].Dims != want {
		t.Errorf("cv1 dims = %+v, want %+v", layers[0].Dims, want)
	}
	if want := tensor.FC(2, 64, 10); layers[1].Dims != want {
		t.Errorf("fc1 dims = %+v, want %+v", layers[1].Dims, want)
	}
}

func TestParameterAndFLOPCounts(t *testing.T) {
	g := tinyLinear(t, 2)
	// cv1: 3·4·3·3 = 108; fc1: 64·10 = 640.
	if got, want := g.ParameterCount(), int64(108+640); got != want {
		t.Errorf("ParameterCount = %d, want %d", got, want)
	}
	cv := tensor.Conv(2, 3, 4, 8, 8, 8, 8, 3, 3)
	fc := tensor.FC(2, 64, 10)
	if got, want := g.TrainingFLOPs(), tensor.TrainingFLOPs(cv)+tensor.TrainingFLOPs(fc); got != want {
		t.Errorf("TrainingFLOPs = %d, want %d", got, want)
	}
}

func TestExtractNetworkLinear(t *testing.T) {
	g := tinyLinear(t, 2)
	net, err := ExtractNetwork(g)
	if err != nil {
		t.Fatalf("ExtractNetwork: %v", err)
	}
	if net.HasParallel() {
		t.Error("linear graph must not produce parallel segments")
	}
	layers := net.Layers()
	if len(layers) != 2 || layers[0].Name != "cv1" || layers[1].Name != "fc1" {
		t.Errorf("Layers = %+v, want [cv1 fc1]", layers)
	}
	if net.Batch != 2 {
		t.Errorf("Batch = %d, want 2", net.Batch)
	}
	if err := net.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestExtractNetworkResidual(t *testing.T) {
	g := tinyResidual(t)
	net, err := ExtractNetwork(g)
	if err != nil {
		t.Fatalf("ExtractNetwork: %v", err)
	}
	if !net.HasParallel() {
		t.Fatal("residual graph must produce a parallel segment")
	}
	// Expect: unit cv1, parallel {identity, [cv2 cv3]}, virtual add, unit cv4.
	if len(net.Segments) != 4 {
		t.Fatalf("Segments = %d, want 4", len(net.Segments))
	}
	if net.Segments[0].Unit == nil || net.Segments[0].Unit.Name != "cv1" {
		t.Errorf("segment 0 = %+v, want unit cv1", net.Segments[0])
	}
	par := net.Segments[1]
	if !par.IsParallel() || len(par.Paths) != 2 {
		t.Fatalf("segment 1 must be a 2-path parallel region, got %+v", par)
	}
	var identity, chain Chain
	for _, p := range par.Paths {
		if len(p) == 0 {
			identity = p
		} else {
			chain = p
		}
	}
	if identity != nil && len(identity) != 0 {
		t.Error("identity path must be empty")
	}
	if len(chain) != 2 || chain[0].Name != "cv2" || chain[1].Name != "cv3" {
		t.Errorf("conv path = %+v, want [cv2 cv3]", chain)
	}
	if net.Segments[2].Unit == nil || !net.Segments[2].Unit.Virtual || net.Segments[2].Unit.Name != "add" {
		t.Errorf("segment 2 = %+v, want virtual unit add", net.Segments[2])
	}
	// The virtual junction's dims describe the 4×8×8 tensor as an identity.
	ad := net.Segments[2].Unit.Dims
	if ad.Di != 4 || ad.Do != 4 || ad.HIn != 8 || ad.HOut != 8 || ad.B != 2 {
		t.Errorf("junction dims = %+v", ad)
	}
	if net.Segments[3].Unit == nil || net.Segments[3].Unit.Name != "cv4" {
		t.Errorf("segment 3 = %+v, want unit cv4", net.Segments[3])
	}
	// Layers() excludes virtual units; Units() includes them.
	if got := len(net.Layers()); got != 4 {
		t.Errorf("Layers() = %d, want 4 (cv1..cv4)", got)
	}
	if got := len(net.Units()); got != 5 {
		t.Errorf("Units() = %d, want 5 (cv1..cv4 + add)", got)
	}
}

func TestExtractNetworkRejectsUninferred(t *testing.T) {
	g := NewGraph("raw")
	in := g.Input("data", tensor.NewShape(1, 2))
	g.Add(Layer{Name: "fc", Op: FCOp{OutFeatures: 2}}, in)
	if _, err := ExtractNetwork(g); err == nil || !strings.Contains(err.Error(), "inferred") {
		t.Errorf("uninferred graph must be rejected, got %v", err)
	}
}

func TestExtractNetworkRejectsNoWeights(t *testing.T) {
	g := NewGraph("noweights")
	in := g.Input("data", tensor.NewShape(1, 3, 8, 8))
	g.Add(ReLU("relu"), in)
	if err := g.Infer(); err != nil {
		t.Fatal(err)
	}
	if _, err := ExtractNetwork(g); err == nil {
		t.Error("graph without weighted layers must be rejected")
	}
}

func TestLinearize(t *testing.T) {
	g := tinyResidual(t)
	net, err := ExtractNetwork(g)
	if err != nil {
		t.Fatal(err)
	}
	lin := net.Linearize()
	if lin.HasParallel() {
		t.Error("linearized network must not contain parallel segments")
	}
	if len(lin.Layers()) != len(net.Layers()) {
		t.Errorf("linearize changed layer count: %d vs %d", len(lin.Layers()), len(net.Layers()))
	}
	if lin.TrainingFLOPs() != net.TrainingFLOPs() {
		t.Error("linearize must preserve total FLOPs")
	}
}

func TestNetworkValidateRejections(t *testing.T) {
	l := WeightedLayer{Name: "x", Kind: KindFC, Dims: tensor.FC(2, 4, 4)}
	cases := []struct {
		name string
		net  Network
	}{
		{"empty", Network{Name: "e"}},
		{"starts parallel", Network{Name: "sp", Segments: []Segment{{Paths: []Chain{{}, {l}}}, {Unit: &l}}}},
		{"ends parallel", Network{Name: "ep", Segments: []Segment{{Unit: &l}, {Paths: []Chain{{}, {l}}}}}},
		{"single path", Network{Name: "1p", Segments: []Segment{{Unit: &l}, {Paths: []Chain{{l}}}, {Unit: &l}}}},
		{"two identities", Network{Name: "2i", Segments: []Segment{{Unit: &l}, {Paths: []Chain{{}, {}}}, {Unit: &l}}}},
	}
	for _, c := range cases {
		if err := c.net.Validate(); err == nil {
			t.Errorf("%s: Validate must reject", c.name)
		}
	}
}

func TestKindStringAndWeighted(t *testing.T) {
	if !KindConv.Weighted() || !KindFC.Weighted() {
		t.Error("conv and fc must be weighted")
	}
	for _, k := range []Kind{KindMaxPool, KindAvgPool, KindReLU, KindBatchNorm, KindLRN, KindDropout, KindFlatten, KindAdd, KindSoftmax, KindInput} {
		if k.Weighted() {
			t.Errorf("%v must not be weighted", k)
		}
		if k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("%d has no name", int(k))
		}
	}
}
