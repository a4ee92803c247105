package models

import (
	"testing"

	"accpar/internal/dnn"
	"accpar/internal/tensor"
)

func TestInceptionShapes(t *testing.T) {
	g, err := Build("inception", 2)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, want tensor.Shape) {
		t.Helper()
		n := nodeNamed(t, g, name)
		if !n.Out.Equal(want) {
			t.Errorf("%s out = %v, want %v", name, n.Out, want)
		}
	}
	check("inc3a_concat", tensor.NewShape(2, 256, 28, 28))
	check("inc3b_concat", tensor.NewShape(2, 480, 28, 28))
	check("inc4a_concat", tensor.NewShape(2, 512, 14, 14))
	check("fc", tensor.NewShape(2, 1000))
}

func TestInceptionNetworkFourPaths(t *testing.T) {
	net, err := BuildNetwork("inception", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !net.HasParallel() {
		t.Fatal("inception must extract parallel segments")
	}
	fourPath := 0
	for _, s := range net.Segments {
		if !s.IsParallel() {
			continue
		}
		if len(s.Paths) != 4 {
			t.Errorf("inception module has %d paths, want 4", len(s.Paths))
			continue
		}
		fourPath++
		for _, p := range s.Paths {
			if len(p) == 0 {
				t.Error("inception paths are never identity shortcuts")
			}
		}
	}
	if fourPath != 3 {
		t.Errorf("four-path modules = %d, want 3", fourPath)
	}
	// The merge units are concat junctions with summed channels.
	for _, u := range net.Units() {
		if u.Kind == dnn.KindConcat {
			if !u.Virtual {
				t.Errorf("%s must be virtual", u.Name)
			}
			if u.Name == "inc3a_concat" && u.Dims.Di != 256 {
				t.Errorf("inc3a junction channels = %d, want 256", u.Dims.Di)
			}
		}
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestConcatInferErrors(t *testing.T) {
	g := dnn.NewGraph("bad")
	in := g.Input("data", tensor.NewShape(1, 3, 8, 8))
	a := g.Add(dnn.Layer{Name: "cva", Op: dnn.ConvOp{OutChannels: 4, KH: 1, KW: 1}}, in)
	b := g.Add(dnn.Layer{Name: "cvb", Op: dnn.ConvOp{OutChannels: 8, KH: 3, KW: 3}}, in) // 6×6 spatial
	g.Add(dnn.Layer{Name: "cat", Op: dnn.ConcatOp{}}, a, b)
	if err := g.Infer(); err == nil {
		t.Error("concat with mismatched spatial extents must fail")
	}
	g2 := dnn.NewGraph("bad2")
	in2 := g2.Input("data", tensor.NewShape(1, 3, 8, 8))
	c := g2.Add(dnn.Layer{Name: "cv", Op: dnn.ConvOp{OutChannels: 4, KH: 1, KW: 1}}, in2)
	g2.Add(dnn.Layer{Name: "cat", Op: dnn.ConcatOp{}}, c)
	if err := g2.Infer(); err == nil {
		t.Error("single-input concat must fail")
	}
}
