package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/tensor"
)

// repeatedNet builds a network that repeats one residual block k times
// after a stem convolution: each block is a two-convolution main path, an
// identity or projection shortcut, and a virtual merge junction, and may
// follow a series convolution of its own, so that its entry unit is a
// convolution rather than the previous block's junction. With shared
// names every block's units carry the same names, so a pinned assignment
// (randomFixed) pins every block alike and the blocks stay repeats of
// each other; otherwise each block pins on its own. One block may
// deviate: its merge junction reads a smaller input area, so its merge
// edges carry other boundaries while its paths match its neighbours'.
func repeatedNet(rnd *rand.Rand, k int) *dnn.Network {
	b := 8 + rnd.Intn(57)
	ch := 4 << rnd.Intn(4)
	hw := 2 << rnd.Intn(3)
	kh := 1 + 2*rnd.Intn(2)
	project := rnd.Intn(2) == 0
	shared := rnd.Intn(2) == 0
	transition := rnd.Intn(2) == 0
	deviant := -1
	if rnd.Intn(2) == 0 {
		deviant = rnd.Intn(k)
	}
	conv := func(name string, kh int) dnn.WeightedLayer {
		return dnn.WeightedLayer{Name: name, Kind: dnn.KindConv, Dims: tensorConv(b, ch, ch, hw, hw, kh)}
	}
	stem := conv("stem", 3)
	net := &dnn.Network{Name: fmt.Sprintf("repeat%d", k), Batch: b, Segments: []dnn.Segment{{Unit: &stem}}}
	for i := 0; i < k; i++ {
		prefix := fmt.Sprintf("blk%d_", i)
		if shared {
			prefix = "blk_"
		}
		if transition {
			entry := conv(prefix+"entry", 1)
			net.Segments = append(net.Segments, dnn.Segment{Unit: &entry})
		}
		main := dnn.Chain{conv(prefix+"a", kh), conv(prefix+"b", 3)}
		shortcut := dnn.Chain{}
		if project {
			shortcut = dnn.Chain{conv(prefix+"proj", 1)}
		}
		hin := hw
		if i == deviant {
			hin = hw / 2
		}
		merge := dnn.WeightedLayer{Name: prefix + "add", Kind: dnn.KindAdd, Virtual: true}
		merge.Dims = tensorConv(b, ch, ch, hin, hw, 1)
		net.Segments = append(net.Segments, dnn.Segment{Paths: []dnn.Chain{main, shortcut}}, dnn.Segment{Unit: &merge})
	}
	return net
}

// tensorConv is a convolution of di→do channels with an hin×hin input,
// an hout×hout output and a kh×kh kernel.
func tensorConv(b, di, do, hin, hout, kh int) tensor.LayerDims {
	return tensor.Conv(b, di, do, hin, hin, hout, hout, kh, kh)
}

// repeatCtx is diffCtx over a repeated-block network, at the root's
// extents or at the extents of one child of a random split. One type for
// every unit scales every block alike; one type per unit sets the
// blocks' extents apart; and one type for the units inside and closing
// the blocks, with a type of its own for each series convolution, keeps
// the blocks' rows and paths alike but not their entry boundaries. A
// re-scaled context keeps the root context's poisoned (unit, type)
// costs, and half the contexts poison one type of one series
// convolution, so consecutive blocks enter from different finite states.
func repeatCtx(rnd *rand.Rand, net *dnn.Network) *levelCtx {
	c := diffCtx(rnd, net)
	var series []int
	for _, s := range c.planSegs {
		if s.unit >= 0 && !c.consts[s.unit].virtual {
			series = append(series, s.unit)
		}
	}
	if scaling := rnd.Intn(4); scaling > 0 {
		ratio := cost.ClampRatio(rnd.Float64())
		types := make([]cost.Type, len(c.dims))
		for u := range types {
			types[u] = cost.Types[rnd.Intn(3)]
		}
		if scaling < 3 {
			inner := types[0]
			for u := range types {
				types[u] = inner
			}
			if scaling == 2 {
				for _, u := range series {
					types[u] = cost.Types[rnd.Intn(3)]
				}
			}
		}
		poisoned := make([][3]bool, len(c.intraU))
		for u := range c.intraU {
			for t := range c.intraU[u] {
				poisoned[u][t] = math.IsInf(c.intraU[u][t], 1)
			}
		}
		root := c.dims
		c.dims = make([]extents, len(types))
		for u, t := range types {
			c.dims[u] = root[u].scale(c.consts[u].virtual, t, ratio)
		}
		c.prepare()
		for u := range poisoned {
			for t, inf := range poisoned[u] {
				if inf {
					c.intraU[u][t] = math.Inf(1)
				}
			}
		}
	}
	if rnd.Intn(2) == 0 {
		c.intraU[series[rnd.Intn(len(series))]][rnd.Intn(3)] = math.Inf(1)
	}
	return c
}

// regionReuse counts, over the last runDP of c, the regions markRepeats
// flagged and those runDP served from the previous region's tables (a
// region record whose offsets equal the previous region record's).
func regionReuse(c *levelCtx) (flagged, reused int) {
	for _, repeat := range c.repeats {
		if repeat {
			flagged++
		}
	}
	prev := -1
	for k, r := range c.dp.chain {
		if r.paths == nil {
			continue
		}
		if prev >= 0 && r.cells == c.dp.chain[prev].cells && r.fins == c.dp.chain[prev].fins {
			reused++
		}
		prev = k
	}
	return flagged, reused
}

// TestRunDPRepeatedBlocksMatchReference checks runDP against the
// per-(entry, merge) reference solver on networks that repeat one
// residual block, where runDP serves a region from the tables of the
// region before it: restricted and pinned type sets (pinned alike in
// every block or block by block), poisoned costs, the memory penalty,
// both objectives and both modes, at root extents and at extents that set
// the blocks apart, with a block whose merge junction deviates. The
// assignment and the objective's bits must match exactly, and so must
// infeasibility; both a reuse and a flagged region that was solved anew
// must occur.
func TestRunDPRepeatedBlocksMatchReference(t *testing.T) {
	rnd := rand.New(rand.NewSource(52))
	cases, infeasible, flagged, reused := 0, 0, 0, 0
	for n := 0; n < 200; n++ {
		net := repeatedNet(rnd, 2+rnd.Intn(5))
		for rep := 0; rep < 8; rep++ {
			c := repeatCtx(rnd, net)
			for step := 0; step < 3; step++ {
				if step > 0 {
					c.alpha = cost.ClampRatio(rnd.Float64())
				}
				wantTypes, wantCost, wantErr := refRunDP(c)
				gotTypes, gotCost, gotErr := c.runDP()
				cases++
				if (wantErr != nil) != (gotErr != nil) {
					t.Fatalf("%s: reference err %v, runDP err %v", net.Name, wantErr, gotErr)
				}
				if wantErr != nil {
					infeasible++
					continue
				}
				if !equalTypes(gotTypes, wantTypes) || math.Float64bits(gotCost) != math.Float64bits(wantCost) {
					t.Fatalf("%s (opt %+v, alpha %v, λ %v): runDP = %v %v, reference = %v %v",
						net.Name, c.opt, c.alpha, c.memLambda, gotTypes, gotCost, wantTypes, wantCost)
				}
				f, r := regionReuse(c)
				flagged += f
				reused += r
			}
		}
	}
	t.Logf("%d cases, %d infeasible; %d flagged regions, %d reused", cases, infeasible, flagged, reused)
	if infeasible == 0 || reused == 0 || reused == flagged {
		t.Fatalf("coverage: %d cases, %d infeasible, %d flagged regions, %d reused", cases, infeasible, flagged, reused)
	}
}

// TestRepeatedRegionsReused pins the work the region reuse removes. At
// the root split of ResNet-50/512 on 128+128 every block after a stage's
// second (1 + 2 + 4 + 1 of its 16 regions) repeats the block before it,
// and a DP run at any ratio serves all eight from the previous region's
// tables; so does ResNet-34's (its 3-4-6-3 stages, basic blocks).
// ResNet-18's two-block stages and Inception repeat no region, so
// markRepeats flags none and their DP runs compare nothing.
func TestRepeatedRegionsReused(t *testing.T) {
	tree := paperTree(t, 128)
	for _, c := range []struct {
		model   string
		flagged int
	}{{"resnet50", 8}, {"resnet34", 8}, {"resnet18", 0}, {"inception", 0}} {
		t.Run(c.model, func(t *testing.T) {
			p, err := newPlanner(context.Background(), buildNet(t, c.model, 512), AccPar())
			if err != nil {
				t.Fatal(err)
			}
			sideI := Side{Compute: tree.Left.Group.ComputeDensity(), Net: p.opt.Topology.BisectionBandwidth(tree.Left.Group)}
			sideJ := Side{Compute: tree.Right.Group.ComputeDensity(), Net: p.opt.Topology.BisectionBandwidth(tree.Right.Group)}
			ctx := p.level(p.rootDims, sideI, sideJ)
			defer p.levels.Put(ctx)
			for _, alpha := range []float64{0.5, sideI.Compute / (sideI.Compute + sideJ.Compute), 0.3} {
				ctx.alpha = alpha
				if _, _, err := ctx.runDP(); err != nil {
					t.Fatal(err)
				}
				flagged, reused := regionReuse(ctx)
				if flagged != c.flagged || reused != c.flagged {
					t.Fatalf("α %v: %d regions flagged and %d reused, want %d of each", alpha, flagged, reused, c.flagged)
				}
			}
		})
	}
}

// TestMirroredChildKeysOnce: the right child of a split at α = 0.5
// exactly over two halves of one digest takes the left child's key, so
// such a split hashes one child key where any other hashes two. A
// homogeneous hierarchy is mirrored at every split; the paper's
// heterogeneous one splits off 0.5 at its root and is mirrored below.
// Each mirrored right child is still looked up: a memo hit.
func TestMirroredChildKeysOnce(t *testing.T) {
	net := buildNet(t, "resnet50", 512)
	for _, c := range []struct {
		name          string
		tree          *hardware.Tree
		heterogeneous bool
	}{
		{"homogeneous", treeFor(t, hardware.GroupSpec{Spec: hardware.TPUv3(), Count: 64}), false},
		{"heterogeneous", paperTree(t, 8), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			rs := &replanStats{}
			plan, err := partitionOne(context.Background(), &searchNet{net: net, rs: rs}, c.tree, AccPar())
			if err != nil {
				t.Fatal(err)
			}
			// Each expanded split is one plan node, however many parents
			// link it.
			seen := map[*PlanNode]bool{}
			var mirrored, other int64
			var walk func(n *PlanNode, node *hardware.Tree)
			walk = func(n *PlanNode, node *hardware.Tree) {
				if n.IsLeaf() || seen[n] {
					return
				}
				seen[n] = true
				if n.Alpha == 0.5 && node.Left.Identity().Digest == node.Right.Identity().Digest {
					mirrored++
				} else {
					other++
				}
				walk(n.Left, node.Left)
				walk(n.Right, node.Right)
			}
			walk(plan.Root, c.tree)
			if mirrored == 0 || (other > 0) != c.heterogeneous {
				t.Fatalf("%d mirrored and %d other splits", mirrored, other)
			}
			if want := mirrored + 2*other; rs.childKeys != want {
				t.Fatalf("%d child keys over %d mirrored and %d other splits, want %d", rs.childKeys, mirrored, other, want)
			}
			if rs.hits < mirrored {
				t.Fatalf("%d memo hits over %d mirrored splits: a right child was not looked up", rs.hits, mirrored)
			}
		})
	}
}

// TestPortfolioDigestsNetworkOnce: a nine-variant portfolio validates its
// network once, and on a shared cache digests it once (an uncached one
// never does). Every path attaches through the one fingerprint, so a
// lone search and a replan of the same network and options land on the
// portfolio's cache entries rather than making their own.
func TestPortfolioDigestsNetworkOnce(t *testing.T) {
	net := buildNet(t, "resnet50", 64)
	tree := paperTree(t, 8)
	cache := NewSharedCache(0)
	for _, cached := range []bool{false, true} {
		variants := StrategyAccPar.Variants()
		if cached {
			for i := range variants {
				variants[i].Cache = cache
			}
		}
		rs := &replanStats{}
		if _, _, err := partition(context.Background(), net, tree, rs, variants, nil); err != nil {
			t.Fatal(err)
		}
		wantDigests := int64(0)
		if cached {
			wantDigests = 1
		}
		if rs.validations != 1 || rs.digests != wantDigests {
			t.Fatalf("cached %v: %d-variant portfolio ran %d validations and %d digests, want 1 and %d",
				cached, len(variants), rs.validations, rs.digests, wantDigests)
		}
	}
	entries := len(cache.entries)
	if entries != len(StrategyAccPar.Variants()) {
		t.Fatalf("portfolio left %d cache entries, want one per variant", entries)
	}
	opt := AccPar()
	opt.Cache = cache
	if _, err := PartitionCtx(context.Background(), net, tree, opt); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplanCtx(context.Background(), net, tree, slowdownTree(t, v2v3Groups(8), 1, 2), opt); err != nil {
		t.Fatal(err)
	}
	if len(cache.entries) != entries {
		t.Fatalf("a lone search and a replan left %d cache entries, want the portfolio's %d", len(cache.entries), entries)
	}
}
