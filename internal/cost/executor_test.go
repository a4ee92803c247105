package cost_test

// This file is a reference executor for the partition algebra of
// Section 3. It runs one real training iteration of a chain of layers on
// two worker goroutines that hold only their tensor shards and move every
// remote element through a counting fabric, so it checks the cost model
// against an execution (execution_test.go):
//
//   - numerics: the sharded, exchanging execution reproduces the
//     single-device reference (up to float64 reassociation);
//   - traffic: the elements the fabric counts equal the Table 4
//     (intra-layer partial sums) and Table 5 (inter-layer conversions)
//     amounts at the exact integer shares.
//
// One executor serves both layer kinds. A fully-connected layer is a 1×1
// convolution over B×D×1×1 maps, as tensor.LayerDims already treats it
// (Section 3.3: the partition types carry over to convolutions
// unchanged). The arithmetic is plain float64 loops: it proves the
// algebra, not speed.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"accpar/internal/core"
	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/tensor"
)

// Tensor4 is a dense row-major tensor with extents N. Feature maps are
// (batch, channel, height, width) and kernels (in-channel, out-channel,
// kernel-height, kernel-width), the layouts of Section 3.3.
type Tensor4 struct {
	N    [4]int
	Data []float64
}

func newTensor4(n [4]int) *Tensor4 {
	if min(n[0], n[1], n[2], n[3]) <= 0 {
		panic(fmt.Sprintf("invalid tensor extents %v", n))
	}
	return &Tensor4{N: n, Data: make([]float64, n[0]*n[1]*n[2]*n[3])}
}

func randomTensor(rnd *rand.Rand, n [4]int) *Tensor4 {
	t := newTensor4(n)
	for i := range t.Data {
		t.Data[i] = rnd.NormFloat64()
	}
	return t
}

func (t *Tensor4) idx(a, b, c, d int) int { return ((a*t.N[1]+b)*t.N[2]+c)*t.N[3] + d }

func (t *Tensor4) Clone() *Tensor4 {
	c := newTensor4(t.N)
	copy(c.Data, t.Data)
	return c
}

// Add accumulates o element-wise.
func (t *Tensor4) Add(o *Tensor4) {
	if t.N != o.N {
		panic("Tensor4.Add shape mismatch")
	}
	for i, v := range o.Data {
		t.Data[i] += v
	}
}

// MaxAbsDiff returns the largest absolute element difference, or +Inf
// when the shapes differ.
func (t *Tensor4) MaxAbsDiff(o *Tensor4) float64 {
	if t.N != o.N {
		return math.Inf(1)
	}
	var worst float64
	for i, v := range o.Data {
		worst = max(worst, math.Abs(t.Data[i]-v))
	}
	return worst
}

// Slice copies indices [lo,hi) of dimension dim (0 or 1).
func (t *Tensor4) Slice(dim, lo, hi int) *Tensor4 {
	n := t.N
	n[dim] = hi - lo
	out := newTensor4(n)
	moveBlocks(out, 0, t, lo, dim, hi-lo)
	return out
}

// Embed writes src into indices [lo, lo+src.N[dim]) of dimension dim
// (0 or 1).
func (t *Tensor4) Embed(dim, lo int, src *Tensor4) { moveBlocks(t, lo, src, 0, dim, src.N[dim]) }

// moveBlocks copies count indices of dimension dim, from src's index sLo
// on to dst's index dLo on; the other dimensions agree.
func moveBlocks(dst *Tensor4, dLo int, src *Tensor4, sLo, dim, count int) {
	outer, inner := 1, src.N[2]*src.N[3]
	if dim == 0 {
		inner *= src.N[1]
	} else {
		outer = src.N[0]
	}
	for a := range outer {
		d, s := (a*dst.N[dim]+dLo)*inner, (a*src.N[dim]+sLo)*inner
		copy(dst.Data[d:d+count*inner], src.Data[s:s+count*inner])
	}
}

// taps walks a stride-1 convolution of input extents in (B,Ci,H,W) to
// output extents out (B,Co,Hout,Wout) with kernel extents w
// (Ci,Co,KH,KW), padded by pad on each side. It calls fn once for every
// sample, in-channel, kernel tap and output position that the tap reaches
// inside the input. fn gets the index of the input element, of the output
// element at out-channel 0 and of the kernel element at out-channel 0.
// The kernels loop over the out-channels innermost, so at 1×1 they step
// through both with stride 1.
func taps(in, out, w [4]int, pad int, fn func(ii, oi, wi int)) {
	b, ci, h, wd := in[0], in[1], in[2], in[3]
	co, hout, wout, kh, kw := out[1], out[2], out[3], w[2], w[3]
	for n := range b {
		for i := range ci {
			for ky := range kh {
				for kx := range kw {
					wi := (i*co*kh+ky)*kw + kx
					for y := max(0, pad-ky); y < min(hout, h+pad-ky); y++ {
						for x := max(0, pad-kx); x < min(wout, wd+pad-kx); x++ {
							fn(((n*ci+i)*h+y+ky-pad)*wd+x+kx-pad, (n*co*hout+y)*wout+x, wi)
						}
					}
				}
			}
		}
	}
}

// convForward computes F_{l+1} = F_l ⊛ W_l (cross-correlation).
func convForward(f, w *Tensor4, pad int) *Tensor4 {
	out := newTensor4([4]int{f.N[0], w.N[1], f.N[2] + 2*pad - w.N[2] + 1, f.N[3] + 2*pad - w.N[3] + 1})
	os, ws := out.N[2]*out.N[3], w.N[2]*w.N[3]
	taps(f.N, out.N, w.N, pad, func(fi, oi, wi int) {
		fv, o, k := f.Data[fi], out.Data[oi:], w.Data[wi:]
		for c := range w.N[1] {
			o[c*os] += fv * k[c*ws]
		}
	})
	return out
}

// convBackward computes E_l = E_{l+1} ⊛ W_lᵀ over an h×wd input extent.
func convBackward(e, w *Tensor4, pad, h, wd int) *Tensor4 {
	out := newTensor4([4]int{e.N[0], w.N[0], h, wd})
	es, ws := e.N[2]*e.N[3], w.N[2]*w.N[3]
	taps(out.N, e.N, w.N, pad, func(ii, ei, wi int) {
		ev, k := e.Data[ei:], w.Data[wi:]
		var s float64
		for c := range e.N[1] {
			s += ev[c*es] * k[c*ws]
		}
		out.Data[ii] += s
	})
	return out
}

// convGradient computes ΔW_l = F_lᵀ ⊛ E_{l+1} for a kh×kw kernel.
func convGradient(f, e *Tensor4, pad, kh, kw int) *Tensor4 {
	out := newTensor4([4]int{f.N[1], e.N[1], kh, kw})
	es, ws := e.N[2]*e.N[3], kh*kw
	taps(f.N, e.N, out.N, pad, func(fi, ei, wi int) {
		fv, ev, o := f.Data[fi], e.Data[ei:], out.Data[wi:]
		for c := range e.N[1] {
			o[c*ws] += fv * ev[c*es]
		}
	})
	return out
}

// Layer is one stride-1 convolution of a chain: Di→Do channels through a
// K×K kernel padded by Pad, partitioned by Type with worker 0's share
// Share0 of the partitioned dimension (B for Type-I, Di for Type-II, Do
// for Type-III). A fully-connected layer has K = 1 and Pad = 0.
type Layer struct {
	Di, Do, K, Pad int
	Type           cost.Type
	Share0         int
}

// out returns the layer's output extents for an h×w input.
func (l Layer) out(h, w int) (int, int) { return h + 2*l.Pad - l.K + 1, w + 2*l.Pad - l.K + 1 }

// Chain is the workload of one training iteration: batch B of H×W input
// maps through Layers.
type Chain struct {
	B, H, W int
	Layers  []Layer
}

// fcChain returns a chain of fully-connected layers: 1×1 convolutions on
// 1×1 maps.
func fcChain(b int, layers ...Layer) *Chain {
	for i := range layers {
		layers[i].K = 1
	}
	return &Chain{B: b, H: 1, W: 1, Layers: layers}
}

// extent returns the length of the dimension l's type partitions.
func (c *Chain) extent(l Layer) int {
	return [...]int{cost.TypeI: c.B, cost.TypeII: l.Di, cost.TypeIII: l.Do}[l.Type]
}

// dims returns every layer's dimensions as the cost model sees them.
func (c *Chain) dims() []tensor.LayerDims {
	var out []tensor.LayerDims
	h, w := c.H, c.W
	for _, l := range c.Layers {
		ho, wo := l.out(h, w)
		out = append(out, tensor.Conv(c.B, l.Di, l.Do, h, w, ho, wo, l.K, l.K))
		h, w = ho, wo
	}
	return out
}

// validate rejects a degenerate chain: every layer's kernel must fit its
// padded input, channels must match across boundaries, and each share
// must leave both workers a non-empty shard.
func (c *Chain) validate() error {
	if c.B < 2 || c.H < 1 || c.W < 1 || len(c.Layers) == 0 {
		return fmt.Errorf("chain needs B ≥ 2, positive map extents and at least one layer")
	}
	for i, d := range c.dims() {
		l := c.Layers[i]
		if i > 0 && c.Layers[i-1].Do != l.Di {
			return fmt.Errorf("layer %d input %d does not match previous output %d", i, l.Di, c.Layers[i-1].Do)
		}
		if min(l.Di, l.Do, l.K, d.HOut, d.WOut) < 1 || l.Pad < 0 {
			return fmt.Errorf("layer %d: %d→%d channels, %d×%d kernel with pad %d leaves a %d×%d map",
				i, l.Di, l.Do, l.K, l.K, l.Pad, d.HOut, d.WOut)
		}
		if n := c.extent(l); l.Share0 <= 0 || l.Share0 >= n {
			return fmt.Errorf("layer %d share %d outside (0,%d)", i, l.Share0, n)
		}
	}
	return nil
}

// extents returns the extents of c's input feature map, of every layer's
// kernel and of the loss-side error.
func (c *Chain) extents() (f0 [4]int, kernels [][4]int, eLast [4]int) {
	ds := c.dims()
	for _, d := range ds {
		kernels = append(kernels, [4]int{d.Di, d.Do, d.KH, d.KW})
	}
	last := ds[len(ds)-1]
	return [4]int{c.B, ds[0].Di, c.H, c.W}, kernels, [4]int{c.B, last.Do, last.HOut, last.WOut}
}

// randomInputs returns random global tensors for c: the input feature
// map, every layer's full kernel and the loss-side error.
func randomInputs(c *Chain, seed int64) (f0 *Tensor4, weights []*Tensor4, eLast *Tensor4) {
	rnd := rand.New(rand.NewSource(seed))
	fn, kn, en := c.extents()
	f0 = randomTensor(rnd, fn)
	for _, k := range kn {
		weights = append(weights, randomTensor(rnd, k))
	}
	return f0, weights, randomTensor(rnd, en)
}

// Result is one iteration's outputs: the chain's output feature map, every
// layer's weight gradient and the error at the chain's input.
type Result struct {
	FNext, EIn *Tensor4
	DW         []*Tensor4
}

// maxDeviation returns the largest element difference between r and o.
func (r *Result) maxDeviation(o *Result) float64 {
	d := max(r.FNext.MaxAbsDiff(o.FNext), r.EIn.MaxAbsDiff(o.EIn))
	for l := range r.DW {
		d = max(d, r.DW[l].MaxAbsDiff(o.DW[l]))
	}
	return d
}

// reference computes the iteration on one device: Equations 1–3, layer by
// layer (activation derivatives omitted, as in Section 3: the element-wise
// ⊙ f'(F_l) does not interact with partitioning).
func reference(c *Chain, f0 *Tensor4, weights []*Tensor4, eLast *Tensor4) *Result {
	acts := make([]*Tensor4, len(c.Layers))
	r := &Result{FNext: f0, EIn: eLast, DW: make([]*Tensor4, len(c.Layers))}
	for l, layer := range c.Layers {
		acts[l] = r.FNext
		r.FNext = convForward(r.FNext, weights[l], layer.Pad)
	}
	for l := len(c.Layers) - 1; l >= 0; l-- {
		layer := c.Layers[l]
		r.DW[l] = convGradient(acts[l], r.EIn, layer.Pad, layer.K, layer.K)
		r.EIn = convBackward(r.EIn, weights[l], layer.Pad, acts[l].N[2], acts[l].N[3])
	}
	return r
}

// replicated is the layout of a tensor both workers hold whole; the other
// layouts split dimension 0 (the batch) or 1 (the channels).
const replicated = -1

var (
	// inDim is the layout a layer of each type consumes F_l in, and
	// produces E_l in.
	inDim = [...]int{cost.TypeI: 0, cost.TypeII: 1, cost.TypeIII: replicated}
	// outDim is the layout it produces F_{l+1} in (Type-II after its
	// partial-sum exchange), and consumes E_{l+1} in.
	outDim = [...]int{cost.TypeI: 0, cost.TypeII: replicated, cost.TypeIII: 1}
	// kernelDim is the layout of its kernel: replicated, or in-channel or
	// out-channel blocks.
	kernelDim = [...]int{cost.TypeI: replicated, cost.TypeII: 0, cost.TypeIII: 1}
)

// shard is one worker's part of a global tensor laid out along dim:
// worker 0 holds the first split indices, worker 1 the rest.
type shard struct {
	dim, split int
	data       *Tensor4
}

// block returns worker w's indices [lo,hi) of n split at split.
func block(split, n, w int) (lo, hi int) {
	if w == 0 {
		return 0, split
	}
	return split, n
}

// own returns worker w's part of full laid out along dim at split.
func own(full *Tensor4, dim, split, w int) shard {
	if dim == replicated {
		return shard{dim, split, full}
	}
	lo, hi := block(split, full.N[dim], w)
	return shard{dim, split, full.Slice(dim, lo, hi)}
}

// concat joins worker 0's block b0 and worker 1's block b1 along dim.
func concat(dim int, b0, b1 *Tensor4) *Tensor4 {
	n := b0.N
	n[dim] += b1.N[dim]
	out := newTensor4(n)
	out.Embed(dim, 0, b0)
	out.Embed(dim, b0.N[dim], b1)
	return out
}

// gather reassembles a global tensor from the two workers' parts.
func gather(a, b shard) *Tensor4 {
	if a.dim == replicated {
		return a.data
	}
	return concat(a.dim, a.data, b.data)
}

// TensorFabric connects the two workers and counts, per tag, the elements
// each transfer moves. Read byTag after Run returns.
type TensorFabric struct {
	chans [2]chan *Tensor4
	mu    sync.Mutex
	byTag map[string]int64
}

// worker executes one side of the chain. Tensors it sends are never
// written again, so the peer may read them in place.
type worker struct {
	id      int
	fabric  *TensorFabric
	kernels []*Tensor4 // the worker's part of each layer's kernel
	inputs  []shard    // F_l as layer l consumed it
	fNext   shard
	eIn     shard
	dW      []shard
}

func (wk *worker) send(tag string, t *Tensor4) {
	wk.fabric.mu.Lock()
	wk.fabric.byTag[tag] += int64(len(t.Data))
	wk.fabric.mu.Unlock()
	wk.fabric.chans[1-wk.id] <- t
}

func (wk *worker) recv() *Tensor4 { return <-wk.fabric.chans[wk.id] }

// swap sends t to the peer and returns what the peer sent.
func (wk *worker) swap(tag string, t *Tensor4) *Tensor4 {
	wk.send(tag, t)
	return wk.recv()
}

// join concatenates the worker's block and its peer's along dim.
func (wk *worker) join(dim int, mine, peer *Tensor4) *Tensor4 {
	if wk.id == 1 {
		return concat(dim, peer, mine)
	}
	return concat(dim, mine, peer)
}

// psum exchanges full-shape partial sums and returns their sum: the
// intra-layer communication of Table 4.
func (wk *worker) psum(tag string, partial *Tensor4) *Tensor4 {
	sum := wk.swap(tag, partial).Clone()
	sum.Add(partial)
	return sum
}

// convert lays the boundary tensor s out along dim at split. It moves
// exactly the elements the worker lacks, and each over the fabric once.
func (wk *worker) convert(s shard, dim, split int, tag string) shard {
	switch {
	case s.dim == dim && (dim == replicated || s.split == split):
		return s
	case s.dim == replicated: // slicing a replicated tensor is free
		return own(s.data, dim, split, wk.id)
	case dim == replicated: // each block goes whole to the peer: a β slab
		return shard{dim, split, wk.join(s.dim, s.data, wk.swap(tag, s.data))}
	case s.dim == dim: // the indices between the two splits change hands
		if (wk.id == 0) == (split > s.split) {
			return shard{dim, split, wk.join(dim, s.data, wk.recv())}
		}
		n, k := s.data.N[dim], max(split-s.split, s.split-split)
		keep, give := 0, n-k
		if wk.id == 1 {
			keep, give = k, 0
		}
		wk.send(tag, s.data.Slice(dim, give, give+k))
		return shard{dim, split, s.data.Slice(dim, keep, keep+n-k)}
	}
	// From one split dimension to the other: each worker sends the part of
	// its block in the peer's new range, the αβ corner.
	lo, hi := block(split, s.data.N[dim], wk.id)
	plo, phi := block(split, s.data.N[dim], 1-wk.id)
	peer := wk.swap(tag, s.data.Slice(dim, plo, phi))
	return shard{dim, split, wk.join(s.dim, s.data.Slice(dim, lo, hi), peer)}
}

// run executes the worker's side of one training iteration. It reads only
// its own parts of the global tensors.
func (wk *worker) run(c *Chain, f0, eLast *Tensor4) {
	n := len(c.Layers)
	wk.inputs, wk.dW = make([]shard, n), make([]shard, n)
	// Forward. The input's distribution is outside the cost model: each
	// worker starts with its part of F_0 as the first layer consumes it.
	cur := own(f0, inDim[c.Layers[0].Type], c.Layers[0].Share0, wk.id)
	for l, layer := range c.Layers {
		if l > 0 {
			cur = wk.convert(cur, inDim[layer.Type], layer.Share0, fmt.Sprintf("xferF/%d", l))
		}
		wk.inputs[l] = cur
		f := convForward(cur.data, wk.kernels[l], layer.Pad)
		if layer.Type == cost.TypeII {
			f = wk.psum(fmt.Sprintf("psumF/%d", l), f)
		}
		cur = shard{outDim[layer.Type], layer.Share0, f}
	}
	wk.fNext = cur

	// Backward and gradient. The loss-side error arrives laid out as the
	// last layer consumes it.
	last := c.Layers[n-1]
	e := own(eLast, outDim[last.Type], last.Share0, wk.id)
	for l := n - 1; l >= 0; l-- {
		layer, in := c.Layers[l], wk.inputs[l].data
		dw := convGradient(in, e.data, layer.Pad, layer.K, layer.K)
		if layer.Type == cost.TypeI {
			dw = wk.psum(fmt.Sprintf("psumW/%d", l), dw)
		}
		wk.dW[l] = shard{kernelDim[layer.Type], layer.Share0, dw}
		ep := convBackward(e.data, wk.kernels[l], layer.Pad, in.N[2], in.N[3])
		if layer.Type == cost.TypeIII {
			ep = wk.psum(fmt.Sprintf("psumE/%d", l), ep)
		}
		e = shard{inDim[layer.Type], layer.Share0, ep}
		if l > 0 {
			prev := c.Layers[l-1]
			e = wk.convert(e, outDim[prev.Type], prev.Share0, fmt.Sprintf("xferE/%d", l))
		}
	}
	wk.eIn = e
}

// Run executes one training iteration of c on two workers: f0 is the
// global input feature map, weights the full kernels and eLast the global
// loss-side error. It returns the reassembled outputs and the fabric.
func Run(c *Chain, f0 *Tensor4, weights []*Tensor4, eLast *Tensor4) (*Result, *TensorFabric, error) {
	if err := c.validate(); err != nil {
		return nil, nil, err
	}
	fn, kn, en := c.extents()
	if f0.N != fn || eLast.N != en || len(weights) != len(kn) {
		return nil, nil, fmt.Errorf("input %v, error %v and %d kernels do not fit the chain's %v, %v and %d",
			f0.N, eLast.N, len(weights), fn, en, len(kn))
	}
	for l, k := range kn {
		if weights[l].N != k {
			return nil, nil, fmt.Errorf("kernel %d extents %v, want %v", l, weights[l].N, k)
		}
	}
	fabric := &TensorFabric{byTag: map[string]int64{}}
	for w := range fabric.chans {
		// Room for all of a worker's sends, at most three per layer (two
		// conversions and one partial-sum exchange), so none blocks.
		fabric.chans[w] = make(chan *Tensor4, 3*len(c.Layers))
	}
	var workers [2]worker
	var wg sync.WaitGroup
	for w := range workers {
		wk := &workers[w]
		wk.id, wk.fabric = w, fabric
		for l, layer := range c.Layers {
			wk.kernels = append(wk.kernels, own(weights[l], kernelDim[layer.Type], layer.Share0, w).data)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk.run(c, f0, eLast)
		}()
	}
	wg.Wait()
	a, b := &workers[0], &workers[1]
	res := &Result{FNext: gather(a.fNext, b.fNext), EIn: gather(a.eIn, b.eIn)}
	for l := range c.Layers {
		res.DW = append(res.DW, gather(a.dW[l], b.dW[l]))
	}
	return res, fabric, nil
}

// ChainFromPlan converts the root split of a plan into an executable chain
// of 1×1 layers. The planner's per-layer types and ratio become integer
// shares: α of each partitioned dimension, rounded and kept strictly
// inside it. Every Type-I layer so takes the same batch split and I→I
// boundaries convert nothing, as one ratio per level prescribes. Only
// linear all-FC networks (the "mlp" model) are supported.
func ChainFromPlan(plan *core.Plan) (*Chain, error) {
	if plan.Root.IsLeaf() {
		return nil, fmt.Errorf("single-accelerator plan has no split to execute")
	}
	c := fcChain(plan.Network.Batch)
	for i, u := range plan.Network.Units() {
		if u.Virtual || u.Kind != dnn.KindFC {
			return nil, fmt.Errorf("layer %q is not an FC layer of a linear network", u.Name)
		}
		l := Layer{Di: u.Dims.Di, Do: u.Dims.Do, K: 1, Type: plan.Root.Types[i]}
		n := c.extent(l)
		l.Share0 = min(max(int(math.Round(plan.Root.Alpha*float64(n))), 1), n-1)
		c.Layers = append(c.Layers, l)
	}
	return c, c.validate()
}
