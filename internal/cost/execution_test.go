package cost_test

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"accpar/internal/core"
	"accpar/internal/cost"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

const tol = 1e-9

// runBoth runs c on random inputs with two workers and on one device. It
// returns the largest deviation between the two and the fabric.
func runBoth(t testing.TB, c *Chain, seed int64) (float64, *TensorFabric) {
	t.Helper()
	f0, weights, eLast := randomInputs(c, seed)
	dist, fabric, err := Run(c, f0, weights, eLast)
	if err != nil {
		t.Fatalf("%+v: %v", c.Layers, err)
	}
	return dist.maxDeviation(reference(c, f0, weights, eLast)), fabric
}

// table45 returns the traffic per fabric tag that the cost model gives c
// when every share is the ratio α of its dimension: each layer's Table 4
// partial sums and each boundary's Table 5 conversions, summed over both
// accelerators. Amounts of zero are left out, as the fabric leaves out
// transfers it never made.
func table45(c *Chain, alpha float64) map[string]int64 {
	want := map[string]int64{}
	add := func(tag string, n int64) {
		if n != 0 {
			want[tag] = n
		}
	}
	dims := c.dims()
	psum := [...]string{cost.TypeI: "psumW", cost.TypeII: "psumF", cost.TypeIII: "psumE"}
	for l, layer := range c.Layers {
		add(fmt.Sprintf("%s/%d", psum[layer.Type], l), 2*cost.IntraCommElements(layer.Type, dims[l]))
		if l == 0 {
			continue
		}
		prev := c.Layers[l-1].Type
		f0, e0 := cost.InterCommSplit(prev, layer.Type, dims[l].AF(), alpha, 1-alpha)
		f1, e1 := cost.InterCommSplit(prev, layer.Type, dims[l].AF(), 1-alpha, alpha)
		add(fmt.Sprintf("xferF/%d", l), int64(math.Round(f0+f1)))
		add(fmt.Sprintf("xferE/%d", l), int64(math.Round(e0+e1)))
	}
	return want
}

// checkTraffic runs c and fails t unless it reproduces the reference and
// its fabric moved exactly table45(c, alpha).
func checkTraffic(t *testing.T, name string, c *Chain, alpha float64) map[string]int64 {
	t.Helper()
	dev, fabric := runBoth(t, c, 7)
	if dev > tol {
		t.Errorf("%s: deviation %g", name, dev)
	}
	if want := table45(c, alpha); !maps.Equal(fabric.byTag, want) {
		t.Errorf("%s: fabric moved %v, Tables 4/5 say %v", name, fabric.byTag, want)
	}
	return fabric.byTag
}

// TestTensor4Basics: row-major indexing, and on a matrix (a B×D×1×1
// tensor) independent clones and a difference that sees shapes.
func TestTensor4Basics(t *testing.T) {
	t.Run("indexing", func(t *testing.T) {
		x := newTensor4([4]int{2, 3, 4, 5})
		if x.idx(1, 2, 3, 4) != len(x.Data)-1 || x.idx(0, 0, 1, 0) != 5 {
			t.Error("idx is not row-major")
		}
	})
	t.Run("matrix-clone-and-diff", func(t *testing.T) {
		x := newTensor4([4]int{2, 3, 1, 1})
		c := x.Clone()
		c.Data[4] = 5
		if x.Data[4] != 0 {
			t.Error("clone aliases original")
		}
		if d := x.MaxAbsDiff(c); d != 5 {
			t.Errorf("MaxAbsDiff = %g", d)
		}
		if d := x.MaxAbsDiff(newTensor4([4]int{3, 2, 1, 1})); !math.IsInf(d, 1) {
			t.Errorf("MaxAbsDiff against the transposed shape = %g, want +Inf", d)
		}
	})
}

// TestTensor4SliceRoundTrip: Slice and Embed along dimensions 0 and 1 put
// a tensor back together, on a 4-D tensor and on a matrix.
func TestTensor4SliceRoundTrip(t *testing.T) {
	for name, n := range map[string][4]int{"tensor4": {4, 6, 2, 3}, "matrix": {4, 6, 1, 1}} {
		t.Run(name, func(t *testing.T) {
			x := randomTensor(rand.New(rand.NewSource(7)), n)
			for dim, cut := range [2]int{1, 2} {
				r := newTensor4(x.N)
				r.Embed(dim, 0, x.Slice(dim, 0, cut))
				r.Embed(dim, cut, x.Slice(dim, cut, x.N[dim]))
				if x.MaxAbsDiff(r) != 0 {
					t.Errorf("Slice/Embed round trip along dimension %d", dim)
				}
			}
		})
	}
}

// TestConvForwardKnown pins two hand-computed products: a 1-channel
// 2×2-kernel convolution, and a fully-connected layer as a 1×1 one,
// [[1 2] [3 4]] × [5 6]ᵀ = [17 39]ᵀ.
func TestConvForwardKnown(t *testing.T) {
	for _, tc := range []struct {
		name string
		f, w [4]int
		fv   []float64
		wv   []float64
		want []float64
	}{
		{"2x2-kernel", [4]int{1, 1, 2, 2}, [4]int{1, 1, 2, 2}, []float64{1, 2, 3, 4}, []float64{1, 1, 1, 1}, []float64{10}},
		{"fc-1x1", [4]int{2, 2, 1, 1}, [4]int{2, 1, 1, 1}, []float64{1, 2, 3, 4}, []float64{5, 6}, []float64{17, 39}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, w := newTensor4(tc.f), newTensor4(tc.w)
			copy(f.Data, tc.fv)
			copy(w.Data, tc.wv)
			out := convForward(f, w, 0)
			if out.N != [4]int{tc.f[0], tc.w[1], 1, 1} || fmt.Sprint(out.Data) != fmt.Sprint(tc.want) {
				t.Errorf("%v ⊛ %v = %v %v, want %v", tc.fv, tc.wv, out.N, out.Data, tc.want)
			}
		})
	}
}

// TestConvFLOPMatchesModel: with F and W all ones, each output element
// counts the products that formed it; at the centre of a pad-1 3×3
// convolution that is the Table 6 CONV term Di·KH·KW.
func TestConvFLOPMatchesModel(t *testing.T) {
	f, w := newTensor4([4]int{2, 3, 4, 4}), newTensor4([4]int{3, 4, 3, 3})
	for _, x := range []*Tensor4{f, w} {
		for i := range x.Data {
			x.Data[i] = 1
		}
	}
	out := convForward(f, w, 1)
	if centre, want := out.Data[out.idx(0, 0, 2, 2)], float64(3*3*3); centre != want {
		t.Errorf("centre contribution = %g, want Di·KH·KW = %g", centre, want)
	}
}

// TestFCReferencePsumPhaseShapes: the reference's outputs have Table 3's
// partial-sum shapes: ΔW for Type-I, F_{l+1} for Type-II, E_l for
// Type-III.
func TestFCReferencePsumPhaseShapes(t *testing.T) {
	c := fcChain(6, Layer{Di: 5, Do: 7, Type: cost.TypeI, Share0: 3})
	f0, weights, eLast := randomInputs(c, 3)
	r := reference(c, f0, weights, eLast)
	if r.DW[0].N != [4]int{5, 7, 1, 1} || r.FNext.N != [4]int{6, 7, 1, 1} || r.EIn.N != [4]int{6, 5, 1, 1} {
		t.Errorf("shapes ΔW %v, F_{l+1} %v, E_l %v", r.DW[0].N, r.FNext.N, r.EIn.N)
	}
}

// randomChain draws a chain with one layer per entry of types: random
// channels and shares, and for a conv chain random maps and kernels of up
// to 3×3, padded at random when pad is set.
func randomChain(rnd *rand.Rand, conv, pad bool, types ...cost.Type) *Chain {
	c := fcChain(2 + rnd.Intn(7))
	if conv {
		c = &Chain{B: 2 + rnd.Intn(3), H: 3 + rnd.Intn(3), W: 3 + rnd.Intn(3)}
	}
	h, w, di := c.H, c.W, 2+rnd.Intn(6)
	for _, ty := range types {
		layer := Layer{Di: di, Do: 2 + rnd.Intn(6), K: 1, Type: ty}
		if conv {
			layer.K = 1 + rnd.Intn(min(h, w, 3))
			if pad {
				layer.Pad = rnd.Intn(layer.K)
			}
			h, w = layer.out(h, w)
		}
		layer.Share0 = 1 + rnd.Intn(c.extent(layer)-1)
		c.Layers = append(c.Layers, layer)
		di = layer.Do
	}
	return c
}

// TestMixedAssignmentsEquivalence is the numerical proof of Section 3 and
// its composition across layer boundaries. Random FC and conv chains, with
// random shares, reproduce the single-device reference: single layers of
// every type and of a random one, unpadded and padded kernels, and chains
// of one to four layers with random types (among them Type-I layers that
// split the batch differently). A single conv layer's outputs are the
// three kernels' own. A share of zero or of the whole dimension leaves one
// worker empty, which the two-accelerator formulation does not model, and
// is rejected.
func TestMixedAssignmentsEquivalence(t *testing.T) {
	for i, tc := range []struct {
		name      string
		conv, pad bool
		layers    int  // 0 draws one to four
		everyType bool // cycle the trials through the three types
	}{
		{"fc-layer-every-type", false, false, 1, true},
		{"fc-layer-random", false, false, 1, false},
		{"fc-chain", false, false, 0, false},
		{"conv-layer-every-type", true, true, 1, true},
		{"conv-layer-unpadded", true, false, 1, true},
		{"conv-layer-random", true, true, 1, false},
		{"conv-chain", true, true, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rnd := rand.New(rand.NewSource(int64(99 + i)))
			for trial := range 30 {
				types := make([]cost.Type, tc.layers)
				if tc.layers == 0 {
					types = make([]cost.Type, 1+rnd.Intn(4))
				}
				for l := range types {
					types[l] = cost.Types[rnd.Intn(3)]
					if tc.everyType {
						types[l] = cost.Types[trial%3]
					}
				}
				c := randomChain(rnd, tc.conv, tc.pad, types...)
				if dev, _ := runBoth(t, c, int64(trial)); dev > tol {
					t.Errorf("trial %d (%+v): deviation %g", trial, c, dev)
				}
			}
		})
	}
	t.Run("conv-layer-vs-kernels", func(t *testing.T) {
		c := &Chain{B: 4, H: 5, W: 5, Layers: []Layer{{Di: 3, Do: 4, K: 3, Pad: 1, Type: cost.TypeII, Share0: 1}}}
		f0, weights, eLast := randomInputs(c, 9)
		dist, _, err := Run(c, f0, weights, eLast)
		if err != nil {
			t.Fatal(err)
		}
		want := &Result{
			FNext: convForward(f0, weights[0], 1),
			EIn:   convBackward(eLast, weights[0], 1, 5, 5),
			DW:    []*Tensor4{convGradient(f0, eLast, 1, 3, 3)},
		}
		if dev := dist.maxDeviation(want); dev > tol {
			t.Errorf("deviation %g from the kernels", dev)
		}
	})
	t.Run("degenerate-shares", func(t *testing.T) {
		rnd := rand.New(rand.NewSource(5))
		for trial := range 30 {
			types := make([]cost.Type, 1+rnd.Intn(4))
			for l := range types {
				types[l] = cost.Types[rnd.Intn(3)]
			}
			c := randomChain(rnd, trial%2 == 1, true, types...)
			f0, weights, eLast := randomInputs(c, 0)
			l := &c.Layers[rnd.Intn(len(c.Layers))]
			for _, share := range []int{0, c.extent(*l)} {
				l.Share0 = share
				if _, _, err := Run(c, f0, weights, eLast); err == nil {
					t.Errorf("trial %d: share %d of %d accepted", trial, share, c.extent(*l))
				}
			}
		}
	})
}

// TestUniformTypeEquivalenceAndTraffic: under each uniform type
// assignment an FC chain and a 3×3 conv chain reproduce the reference
// and move exactly the cost model's amounts: the Table 4 partial sums of
// every layer, plus for Type-II the error and for Type-III the feature map
// across each boundary (Table 5 patterns (e) and (i), a β slab per
// accelerator, the whole boundary tensor in all). The shares differ from
// layer to layer, which these patterns do not see.
func TestUniformTypeEquivalenceAndTraffic(t *testing.T) {
	shares := map[cost.Type][3]int{
		cost.TypeI:   {4, 4, 4}, // B shares: one batch split, so I→I converts nothing
		cost.TypeII:  {3, 4, 2}, // Di shares
		cost.TypeIII: {4, 2, 5}, // Do shares
	}
	t.Run("fc", func(t *testing.T) {
		for _, ty := range cost.Types {
			s := shares[ty]
			checkTraffic(t, ty.String(), fcChain(8,
				Layer{Di: 6, Do: 8, Type: ty, Share0: s[0]},
				Layer{Di: 8, Do: 4, Type: ty, Share0: s[1]},
				Layer{Di: 4, Do: 10, Type: ty, Share0: s[2]}), 0.5)
		}
	})
	t.Run("conv", func(t *testing.T) {
		for _, ty := range cost.Types {
			s := shares[ty]
			checkTraffic(t, ty.String(), &Chain{B: 8, H: 5, W: 5, Layers: []Layer{
				{Di: 6, Do: 8, K: 3, Pad: 1, Type: ty, Share0: s[0]},
				{Di: 8, Do: 4, K: 3, Pad: 1, Type: ty, Share0: s[1]},
				{Di: 4, Do: 10, K: 3, Pad: 1, Type: ty, Share0: s[2]},
			}}, 0.5)
		}
	})
}

// TestInterLayerTrafficMatchesTable5: an I→II boundary with α = 1/4 of
// both the batch and the channels moves exactly the αβ corner of Table 5
// pattern (b), 2αβ·A(F) forward and 2αβ·A(E) backward, besides each
// layer's partial sums, in an FC chain and a 3×3 conv chain.
func TestInterLayerTrafficMatchesTable5(t *testing.T) {
	for name, c := range map[string]*Chain{
		"FC": fcChain(8,
			Layer{Di: 4, Do: 8, Type: cost.TypeI, Share0: 2},
			Layer{Di: 8, Do: 4, Type: cost.TypeII, Share0: 2}),
		"conv": {B: 4, H: 3, W: 3, Layers: []Layer{
			{Di: 2, Do: 4, K: 3, Pad: 1, Type: cost.TypeI, Share0: 1},
			{Di: 4, Do: 2, K: 3, Pad: 1, Type: cost.TypeII, Share0: 1},
		}},
	} {
		got := checkTraffic(t, name, c, 0.25)
		// 2αβ·A = 2·(1/4)·(3/4)·A: 24 of the FC's 8×8, 54 of the conv's 4×4×3×3.
		if a := c.dims()[1].AF(); got["xferF/1"] != 3*a/8 || got["xferE/1"] != 3*a/8 {
			t.Errorf("%s: corner moved %d and %d, want 2αβ·A = %d", name, got["xferF/1"], got["xferE/1"], 3*a/8)
		}
	}
}

// TestZeroCostTransitions: II→III and III→II boundaries move nothing
// (Table 5 patterns (f) and (h)), in an FC chain and a 3×3 conv chain.
func TestZeroCostTransitions(t *testing.T) {
	for name, c := range map[string]*Chain{
		"FC": fcChain(6,
			Layer{Di: 4, Do: 6, Type: cost.TypeIII, Share0: 2},
			Layer{Di: 6, Do: 4, Type: cost.TypeII, Share0: 2}),
		"conv": {B: 6, H: 4, W: 4, Layers: []Layer{
			{Di: 3, Do: 6, K: 3, Pad: 1, Type: cost.TypeIII, Share0: 2},
			{Di: 6, Do: 3, K: 3, Pad: 1, Type: cost.TypeII, Share0: 2},
			{Di: 3, Do: 6, K: 3, Pad: 1, Type: cost.TypeIII, Share0: 2},
		}},
	} {
		for tag, n := range checkTraffic(t, name, c, 1.0/3) {
			if strings.HasPrefix(tag, "xfer") {
				t.Errorf("%s: %d elements under %s; Table 5 says 0", name, n, tag)
			}
		}
	}
}

// TestRunValidation: malformed FC and conv chains and tensors are
// rejected, and so is a kernel that leaves its map empty.
func TestRunValidation(t *testing.T) {
	for name, good := range map[string]*Chain{
		"fc":   fcChain(4, Layer{Di: 2, Do: 3, Type: cost.TypeI, Share0: 2}),
		"conv": {B: 4, H: 3, W: 3, Layers: []Layer{{Di: 2, Do: 3, K: 3, Pad: 1, Type: cost.TypeI, Share0: 2}}},
	} {
		t.Run(name, func(t *testing.T) {
			f0, weights, eLast := randomInputs(good, 1)
			with := func(edit func(c *Chain)) *Chain {
				c := *good
				c.Layers = slices.Clone(good.Layers)
				edit(&c)
				return &c
			}
			l := good.Layers[0]
			for why, c := range map[string]*Chain{
				"B=1":              with(func(c *Chain) { c.B = 1 }),
				"no layers":        with(func(c *Chain) { c.Layers = nil }),
				"zero share":       with(func(c *Chain) { c.Layers[0].Share0 = 0 }),
				"negative pad":     with(func(c *Chain) { c.Layers[0].Pad = -1 }),
				"channel mismatch": with(func(c *Chain) { c.Layers = append(c.Layers, Layer{Di: l.Do + 1, Do: 2, K: 1, Share0: 2}) }),
			} {
				if _, _, err := Run(c, f0, weights, eLast); err == nil {
					t.Errorf("%s: accepted", why)
				}
			}
			if _, _, err := Run(good, f0, nil, eLast); err == nil {
				t.Error("missing weights accepted")
			}
			n := f0.N
			n[0]--
			if _, _, err := Run(good, newTensor4(n), weights, eLast); err == nil {
				t.Error("wrong input shape accepted")
			}
			if _, _, err := Run(good, f0, weights, f0); err == nil {
				t.Error("wrong error shape accepted")
			}
		})
	}
	t.Run("kernel-fit", func(t *testing.T) {
		// A 5×5 kernel fits a 3×3 map padded by 1 and leaves it empty unpadded.
		padded := &Chain{B: 4, H: 3, W: 3, Layers: []Layer{{Di: 2, Do: 2, K: 5, Pad: 1, Type: cost.TypeI, Share0: 2}}}
		f0, weights, eLast := randomInputs(padded, 1)
		if _, _, err := Run(padded, f0, weights, eLast); err != nil {
			t.Errorf("padded: %v", err)
		}
		unpadded := &Chain{B: 4, H: 3, W: 3, Layers: []Layer{{Di: 2, Do: 2, K: 5, Type: cost.TypeI, Share0: 2}}}
		if _, _, err := Run(unpadded, f0, weights, eLast); err == nil {
			t.Error("unpadded: accepted")
		}
	})
}

// TestPlanExecutesNumerically: partition the all-FC "mlp" model with every
// strategy, convert each plan's root split into a chain, execute it with
// real arithmetic on two workers, and check it against the unpartitioned
// reference: the planner's decisions are not just cheap, they are
// correct.
func TestPlanExecutesNumerically(t *testing.T) {
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: 1},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 1})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	net, err := models.BuildNetwork("mlp", 4)
	if err != nil {
		t.Fatal(err)
	}
	for label, opt := range map[string]core.Options{
		"dp": core.DataParallel(), "owt": core.OWT(), "hypar": core.HyPar(), "accpar": core.AccPar(),
	} {
		plan, err := core.PartitionCtx(context.Background(), net, tree, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		chain, err := ChainFromPlan(plan)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(chain.Layers) != 5 {
			t.Fatalf("%s: chain has %d layers, want 5", label, len(chain.Layers))
		}
		// Magnitudes through the 4096-wide chain reach ~1e9, so float64
		// reassociation leaves ~1e-7 absolute noise; 1e-4 is a
		// comfortably tight relative bound.
		dev, fabric := runBoth(t, chain, 11)
		if dev > 1e-4 {
			t.Errorf("%s: plan execution deviates %g from reference", label, dev)
		}
		if len(fabric.byTag) == 0 {
			t.Errorf("%s: plan execution moved no elements", label)
		}
	}
}

// TestChainFromPlanRejections: networks the chain cannot express are
// refused cleanly.
func TestChainFromPlanRejections(t *testing.T) {
	plan := func(model string, boards int) *core.Plan {
		t.Helper()
		arr, err := hardware.NewHomogeneous(hardware.TPUv3(), boards)
		if err != nil {
			t.Fatal(err)
		}
		tree, err := hardware.BuildTree(arr, 64)
		if err != nil {
			t.Fatal(err)
		}
		net, err := models.BuildNetwork(model, 8)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.PartitionCtx(context.Background(), net, tree, core.AccPar())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		why, model string
		boards     int
	}{
		{"conv model", "lenet", 2},
		{"multi-path model", "resnet18", 2},
		{"single-accelerator plan", "mlp", 1},
	} {
		if _, err := ChainFromPlan(plan(tc.model, tc.boards)); err == nil {
			t.Errorf("%s accepted", tc.why)
		}
	}
}

// BenchmarkDistributedRuntime measures the reference executor on a
// mixed-type FC chain, every exchange included.
func BenchmarkDistributedRuntime(b *testing.B) {
	c := fcChain(64,
		Layer{Di: 256, Do: 512, Type: cost.TypeI, Share0: 32},
		Layer{Di: 512, Do: 512, Type: cost.TypeII, Share0: 256},
		Layer{Di: 512, Do: 128, Type: cost.TypeIII, Share0: 64})
	f0, weights, eLast := randomInputs(c, 1)
	b.ResetTimer()
	for range b.N {
		if _, _, err := Run(c, f0, weights, eLast); err != nil {
			b.Fatal(err)
		}
	}
}
