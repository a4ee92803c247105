package core

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/models"
	"accpar/internal/tensor"
)

// TestSearchSizesMatchTensor pins the search's size function
// (unitConst.sizes over a unit's constants and three extents) to the
// tensor and cost definitions it multiplies out: A(F_l), A(F_{l+1}),
// A(W_l), the training and inference FLOPs and the Table 4 intra-layer
// elements in both modes must be equal, bit for bit, at every unit of
// every registered model at batch 1, 64 and 512, and at child dims
// scaled four levels down at random types and ratios, both MinRatio
// clamps included. The scaled extents must also be the extents of
// ScaleUnitDims's dims, which plan walkers derive.
func TestSearchSizesMatchTensor(t *testing.T) {
	rnd := rand.New(rand.NewSource(43))
	checked := 0
	check := func(name string, u int, k *unitConst, e extents, d tensor.LayerDims) {
		t.Helper()
		if e != extentsOf(d) {
			t.Fatalf("%s unit %d: search extents %+v, dims %+v", name, u, e, d)
		}
		s, si := k.sizes(e, false), k.sizes(e, true)
		for _, c := range []struct {
			what      string
			got, want int64
		}{
			{"AF", s.af, d.AF()},
			{"AFNext", s.afNext, d.AFNext()},
			{"AW", s.aw, d.AW()},
			{"inference AF", si.af, d.AF()},
			{"inference AFNext", si.afNext, d.AFNext()},
			{"inference AW", si.aw, d.AW()},
			{"TrainingFLOPs", s.flops, tensor.TrainingFLOPs(d)},
			{"ForwardFLOPs", si.flops, tensor.ForwardFLOPs(d)},
		} {
			if c.got != c.want {
				t.Fatalf("%s unit %d %+v: %s = %d, want %d", name, u, d, c.what, c.got, c.want)
			}
		}
		var train, infer [3]float64
		s.intra(&train, false)
		si.intra(&infer, true)
		for _, ty := range cost.Types {
			if got, want := train[ty], float64(cost.IntraCommElements(ty, d)); got != want {
				t.Fatalf("%s unit %d %+v: %v intra = %g, IntraCommElements %g", name, u, d, ty, got, want)
			}
			if got, want := infer[ty], float64(intraCommElementsInference(ty, d)); got != want {
				t.Fatalf("%s unit %d %+v: %v inference intra = %g, intraCommElementsInference %g", name, u, d, ty, got, want)
			}
		}
		checked++
	}
	for _, model := range models.Names() {
		for _, batch := range []int{1, 64, 512} {
			net := buildNet(t, model, batch)
			s := newSearchShape(net, Options{})
			root := layerDims(s.units)
			for u := range s.units {
				check(model, u, &s.consts[u], s.rootDims[u], root[u])
			}
			// Four levels down at the lower clamp, the upper clamp, and
			// random ratios.
			for _, ratio := range []func() float64{
				func() float64 { return cost.MinRatio },
				func() float64 { return 1 - cost.MinRatio },
				func() float64 { return cost.ClampRatio(rnd.Float64()) },
			} {
				full, ext := root, s.rootDims
				for level := 1; level <= 4; level++ {
					types := make([]cost.Type, len(s.units))
					for i := range types {
						types[i] = cost.Types[rnd.Intn(len(cost.Types))]
					}
					r := ratio()
					full = ScaleUnitDims(s.units, full, types, r)
					ext = s.scaled(ext, types, r)
					for u := range s.units {
						check(model, u, &s.consts[u], ext[u], full[u])
					}
				}
			}
		}
	}
	t.Logf("%d unit sizes checked", checked)
}

// convChain is a three-unit chain, two convolutions and a classifier, at
// the given batch; edit adjusts the second convolution's dims.
func convChain(batch int, edit func(d *tensor.LayerDims)) *dnn.Network {
	units := []dnn.WeightedLayer{
		{Name: "conv1", Kind: dnn.KindConv, Dims: tensor.Conv(batch, 3, 16, 32, 32, 32, 32, 3, 3)},
		{Name: "conv2", Kind: dnn.KindConv, Dims: tensor.Conv(batch, 16, 32, 16, 16, 16, 16, 3, 3)},
		{Name: "fc", Kind: dnn.KindFC, Dims: tensor.FC(batch, 32*16*16, 10)},
	}
	if edit != nil {
		edit(&units[1].Dims)
	}
	net := &dnn.Network{Name: "conv-chain", Batch: batch}
	for i := range units {
		net.Segments = append(net.Segments, dnn.Segment{Unit: &units[i]})
	}
	return net
}

// TestFingerprintCoversUnitConstants: a search shape keeps every unit's
// constants (feature-map areas, kernel window) and keys hash only the
// three extents a split changes, so networks that differ in one unit's
// HIn, KH or HOut must get different fingerprints and never share a
// SharedCache entry, and each must plan exactly as it does alone.
// Networks that differ only in batch must still share one entry and
// shape.
func TestFingerprintCoversUnitConstants(t *testing.T) {
	tree := paperTree(t, 4)
	opt := AccPar()
	base := convChain(64, nil)
	baseFP := searchFingerprint(&searchNet{net: base}, opt.withDefaults())
	for _, c := range []struct {
		name string
		edit func(d *tensor.LayerDims)
	}{
		{"HIn", func(d *tensor.LayerDims) { d.HIn = 8 }},
		{"KH", func(d *tensor.LayerDims) { d.KH = 5 }},
		{"HOut", func(d *tensor.LayerDims) { d.HOut = 8 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			other := convChain(64, c.edit)
			if searchFingerprint(&searchNet{net: other}, opt.withDefaults()) == baseFP {
				t.Fatalf("networks differing in %s share a fingerprint", c.name)
			}
			alone, err := PartitionCtx(context.Background(), other, tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewSharedCache(0)
			cached := opt
			cached.Cache = cache
			for _, net := range []*dnn.Network{base, other} {
				if _, err := PartitionCtx(context.Background(), net, tree, cached); err != nil {
					t.Fatal(err)
				}
			}
			if len(cache.entries) != 2 {
				t.Fatalf("networks differing in %s left %d cache entries, want 2", c.name, len(cache.entries))
			}
			if hits := cache.Stats().Hits; hits != 0 {
				t.Fatalf("networks differing in %s: %d cross-search hits, want 0", c.name, hits)
			}
			after, err := PartitionCtx(context.Background(), other, tree, cached)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := planJSON(t, after), planJSON(t, alone); !bytes.Equal(got, want) {
				t.Fatalf("network differing in %s plans differently on a shared cache", c.name)
			}
		})
	}
	t.Run("batch", func(t *testing.T) {
		other := convChain(512, nil)
		if searchFingerprint(&searchNet{net: other}, opt.withDefaults()) != baseFP {
			t.Fatal("networks differing only in batch get different fingerprints")
		}
		cache := NewSharedCache(0)
		cached := opt
		cached.Cache = cache
		var shapes []*searchShape
		for _, net := range []*dnn.Network{base, other} {
			p, err := newPlanner(context.Background(), net, cached)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.plan(tree); err != nil {
				t.Fatal(err)
			}
			p.release()
			shapes = append(shapes, p.searchShape)
		}
		if len(cache.entries) != 1 || shapes[0] != shapes[1] {
			t.Fatalf("batch 64 and 512 left %d cache entries (shared shape %v), want one shared entry", len(cache.entries), shapes[0] == shapes[1])
		}
	})
}

// intraCommElementsInference returns the intra-layer exchange of the
// forward phase only — what DNN inference (data forward only, Section 1)
// incurs: the Table 4 amount of a type whose partial sums fall in the
// forward phase (Type-II's F_{l+1}), and nothing for the types whose
// partial sums belong to the backward or gradient phase, which inference
// never runs.
func intraCommElementsInference(t cost.Type, d tensor.LayerDims) int64 {
	if t.PsumPhase() != cost.PhaseForward {
		return 0
	}
	return cost.IntraCommElements(t, d)
}
