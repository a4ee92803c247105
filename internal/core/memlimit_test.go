package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/optimizer"
	"accpar/internal/tensor"
	"accpar/internal/workload"
)

// shrunkTree builds a 1+1 TPU-v2/v3 hierarchy with every board's HBM
// divided by div (floored at one byte).
func shrunkTree(t *testing.T, div int64) *hardware.Tree {
	t.Helper()
	a, b := hardware.TPUv2(), hardware.TPUv3()
	a.HBMBytes = max(1, a.HBMBytes/div)
	b.HBMBytes = max(1, b.HBMBytes/div)
	return twoAccelTree(t, a, b)
}

// TestMemoryModesNonBindingByteIdentical asserts the central contract of
// Options.MemoryLimit: when the constraint is inactive or non-binding
// (Table 7 capacities hold every plan here), reject and penalize modes
// produce byte-for-byte the unconstrained plan.
func TestMemoryModesNonBindingByteIdentical(t *testing.T) {
	for _, model := range []string{"lenet", "alexnet"} {
		net := buildNet(t, model, 64)
		for _, tree := range []*hardware.Tree{twoAccelTree(t, hardware.TPUv2(), hardware.TPUv3()), paperTree(t, 2)} {
			for _, mkOpt := range []func() Options{AccPar, DataParallel, OWT, HyPar} {
				off, err := PartitionCtx(context.Background(), net, tree, mkOpt())
				if err != nil {
					t.Fatal(err)
				}
				want := planJSON(t, off)
				for _, mode := range []MemoryMode{MemoryReject, MemoryPenalize} {
					opt := mkOpt()
					opt.MemoryLimit = mode
					got, err := PartitionCtx(context.Background(), net, tree, opt)
					if err != nil {
						t.Fatalf("%s/%s mode %v: %v", model, tree.Group.String(), mode, err)
					}
					if !bytes.Equal(planJSON(t, got), want) {
						t.Errorf("%s on %s: mode %v plan differs from unconstrained", model, tree.Group.String(), mode)
					}
				}
			}
		}
	}
}

// TestMemoryRejectPlansAlwaysFit sweeps capacities from generous to
// impossible and asserts reject mode's dichotomy: every returned plan
// fits (Memory().OK), every failure is the typed infeasibility error.
// The pinned divisors additionally assert that the constrained search
// rescues workloads the unconstrained optimum overflows (the candidate
// ladder distorting decisions to fit), not just rubber-stamps them.
func TestMemoryRejectPlansAlwaysFit(t *testing.T) {
	cases := []struct {
		model    string
		opt      optimizer.Kind
		boundDiv int64 // divisor where the constraint binds but a plan still fits
	}{
		{"alexnet", optimizer.Adam, 256},
		{"resnet18", optimizer.SGD, 128},
	}
	for _, c := range cases {
		net := buildNet(t, c.model, 128)
		bound := false
		for div := int64(1); div <= 1<<13; div *= 2 {
			tree := shrunkTree(t, div)
			opt := AccPar()
			opt.Optimizer = c.opt
			off, err := PartitionCtx(context.Background(), net, tree, opt)
			if err != nil {
				t.Fatal(err)
			}
			opt.MemoryLimit = MemoryReject
			rej, err := PartitionCtx(context.Background(), net, tree, opt)
			if err != nil {
				if !errors.Is(err, ErrNoFeasiblePlan) {
					t.Fatalf("%s div %d: untyped failure %v", c.model, div, err)
				}
				var nfe *NoFeasiblePlanError
				if !errors.As(err, &nfe) || nfe.TightestGroup == "" || nfe.ResidencyBytes <= nfe.CapacityBytes {
					t.Errorf("%s div %d: diagnostic incomplete: %+v", c.model, div, nfe)
				}
				continue
			}
			if m := rej.Memory(); !m.OK {
				t.Errorf("%s div %d: reject mode returned an overflowing plan: %s", c.model, div, m)
			}
			if div == c.boundDiv {
				if off.Memory().OK {
					t.Errorf("%s div %d: expected the unconstrained plan to overflow", c.model, div)
				}
				if bytes.Equal(planJSON(t, rej), planJSON(t, off)) {
					t.Errorf("%s div %d: constrained search did not distort the overflowing plan", c.model, div)
				}
				bound = true
			}
		}
		if !bound {
			t.Errorf("%s: pinned binding divisor %d never produced a plan", c.model, c.boundDiv)
		}
	}
}

// TestMemoryRejectIffBruteForce certifies reject-mode completeness on
// small workloads: under equal ratios on a 1+1 hierarchy the constrained
// search's type-vector fallback is exhaustive, so ErrNoFeasiblePlan must
// fire exactly when a direct enumeration of every allowed assignment
// finds no fitting plan.
func TestMemoryRejectIffBruteForce(t *testing.T) {
	nets := [][]tensor.LayerDims{
		{tensor.FC(16, 256, 256)},
		{tensor.FC(16, 256, 128), tensor.FC(16, 128, 256)},
		{tensor.FC(32, 512, 64), tensor.FC(32, 64, 64), tensor.FC(32, 64, 512)},
	}
	for ni, dims := range nets {
		net := chainNet(dims)
		opt := AccPar().withDefaults()
		opt.Ratio = RatioEqual
		s := newSearchShape(net, opt)
		units, rootDims := s.units, s.rootDims
		res0 := residencyAtDims(s.consts, rootDims, opt)

		// bruteFeasible enumerates every type vector at alpha = ½ and
		// reports whether any assignment fits both leaves.
		bruteFeasible := func(capL, capR int64) bool {
			assignment := make([]cost.Type, len(units))
			var recur func(u int) bool
			recur = func(u int) bool {
				if u == len(units) {
					half := s.scaled(rootDims, assignment, 0.5)
					return residencyAtDims(s.consts, half, opt) <= capL &&
						residencyAtDims(s.consts, half, opt) <= capR
				}
				for _, ty := range opt.Types {
					assignment[u] = ty
					if recur(u + 1) {
						return true
					}
				}
				return false
			}
			return recur(0)
		}

		// Sweep per-leaf capacities across the feasibility knee: from
		// comfortably above the aggregate residency down to a fraction of
		// the best possible shard.
		for _, frac := range []float64{2, 1, 0.75, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1} {
			capL := max(1, int64(frac*float64(res0)))
			capR := max(1, int64(1.5*frac*float64(res0)))
			a, b := hardware.TPUv2(), hardware.TPUv3()
			a.HBMBytes, b.HBMBytes = capL, capR
			tree := twoAccelTree(t, a, b)

			copt := opt
			copt.MemoryLimit = MemoryReject
			_, err := PartitionCtx(context.Background(), net, tree, copt)
			want := bruteFeasible(capL, capR)
			switch {
			case err == nil && !want:
				t.Errorf("net %d frac %g: search found a plan but brute force says none fits", ni, frac)
			case err != nil && want:
				t.Errorf("net %d frac %g: search reported %v but brute force finds a fitting assignment", ni, frac, err)
			case err != nil && !errors.Is(err, ErrNoFeasiblePlan):
				t.Errorf("net %d frac %g: untyped failure %v", ni, frac, err)
			}

			// Penalize mode never errors on the same workload, and its
			// plan fits exactly when reject mode succeeds.
			popt := opt
			popt.MemoryLimit = MemoryPenalize
			plan, perr := PartitionCtx(context.Background(), net, tree, popt)
			if perr != nil {
				t.Fatalf("net %d frac %g: penalize mode errored: %v", ni, frac, perr)
			}
			if got := plan.Memory().OK; got != want {
				t.Errorf("net %d frac %g: penalize plan fits=%v, brute force feasible=%v", ni, frac, got, want)
			}
		}
	}
}

// TestMemoryLimitChangesFingerprint: the search fingerprint namespaces
// memo and shared-cache entries on the constraint configuration, so
// constrained and unconstrained searches can never exchange plan nodes.
func TestMemoryLimitChangesFingerprint(t *testing.T) {
	net := buildNet(t, "lenet", 32)
	seen := map[[16]byte]MemoryMode{}
	for _, mode := range []MemoryMode{MemoryOff, MemoryReject, MemoryPenalize} {
		opt := AccPar().withDefaults()
		opt.MemoryLimit = mode
		fp := searchFingerprint(&searchNet{net: net}, opt)
		if prev, dup := seen[fp]; dup {
			t.Errorf("modes %v and %v share fingerprint %x", prev, mode, fp)
		}
		seen[fp] = mode
	}
}

// TestMemoryModeStrings covers the mode names and Options validation of
// out-of-range modes.
func TestMemoryModeStrings(t *testing.T) {
	for mode, want := range map[MemoryMode]string{MemoryOff: "off", MemoryReject: "reject", MemoryPenalize: "penalize"} {
		if got := mode.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(mode), got, want)
		}
	}
	bad := AccPar()
	bad.MemoryLimit = MemoryMode(9)
	if err := bad.validate(); err == nil {
		t.Error("invalid memory mode must be rejected")
	}
}

// TestMemoryReportZeroLeaves: the zero-value report renders a guard
// string instead of "peak 0 bytes of 0 on ".
func TestMemoryReportZeroLeaves(t *testing.T) {
	got := MemoryReport{}.String()
	if got != "memory: no leaf groups" {
		t.Errorf("zero-leaf report = %q", got)
	}
}

// TestNoFeasiblePlanErrorShape: the typed error matches the sentinel and
// renders its diagnostics.
func TestNoFeasiblePlanErrorShape(t *testing.T) {
	err := &NoFeasiblePlanError{TightestGroup: "2×tpu-v2", ResidencyBytes: 10, CapacityBytes: 4}
	if !errors.Is(err, ErrNoFeasiblePlan) {
		t.Error("typed error must match the sentinel")
	}
	msg := err.Error()
	for _, want := range []string{"2×tpu-v2", "10", "4"} {
		if !bytes.Contains([]byte(msg), []byte(want)) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

// TestMinResidencyBytes: the aggregate floor is positive, monotone in the
// optimizer's state size, and rejects invalid options.
func TestMinResidencyBytes(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	sgd, err := MinResidencyBytes(net, AccPar())
	if err != nil || sgd <= 0 {
		t.Fatalf("MinResidencyBytes = %d, %v", sgd, err)
	}
	aopt := AccPar()
	aopt.Optimizer = optimizer.Adam
	adam, err := MinResidencyBytes(net, aopt)
	if err != nil || adam <= sgd {
		t.Errorf("adam floor %d must exceed sgd floor %d (err=%v)", adam, sgd, err)
	}
	bad := AccPar()
	bad.MemoryLimit = MemoryMode(9)
	if _, err := MinResidencyBytes(net, bad); err == nil {
		t.Error("invalid options must be rejected")
	}
}

// TestPortfolioToleratesInfeasibleVariants: every portfolio path —
// PartitionCtx, and PartitionAllCtx on a shared cache cold and warm —
// skips variants that cannot fit, returns the same fitting winner, and
// propagates the typed error only when every variant is infeasible.
func TestPortfolioToleratesInfeasibleVariants(t *testing.T) {
	net := buildNet(t, "alexnet", 128)
	variants := StrategyAccPar.Variants()
	for i := range variants {
		variants[i].MemoryLimit = MemoryReject
	}

	// At a binding-but-feasible capacity some variant must die on its own,
	// or the tolerance goes unexercised; the portfolio must still return a
	// fitting winner.
	tree := shrunkTree(t, 256)
	infeasible := 0
	for _, opt := range variants {
		if _, err := PartitionCtx(context.Background(), net, tree, opt); errors.Is(err, ErrNoFeasiblePlan) {
			infeasible++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if infeasible == 0 {
		t.Fatal("no variant is infeasible on its own; the capacity no longer binds")
	}
	plan, err := PartitionCtx(context.Background(), net, tree, variants...)
	if err != nil {
		t.Fatalf("portfolio with feasible variants: %v", err)
	}
	if !plan.Memory().OK {
		t.Error("portfolio winner overflows")
	}
	want := planJSON(t, plan)
	_, wantVariant, err := PartitionAllCtx(context.Background(), net, tree, variants...)
	if err != nil {
		t.Fatal(err)
	}
	cached := append([]Options(nil), variants...)
	cache := NewSharedCache(0)
	for i := range cached {
		cached[i].Cache = cache
	}
	for pass := 0; pass < 2; pass++ {
		got, variant, err := PartitionAllCtx(context.Background(), net, tree, cached...)
		if err != nil {
			t.Fatalf("cached portfolio pass %d with feasible variants: %v", pass, err)
		}
		if variant != wantVariant || !bytes.Equal(planJSON(t, got[variant]), want) {
			t.Errorf("cached portfolio pass %d winner (variant %d) differs from PartitionCtx (variant %d)", pass, variant, wantVariant)
		}
	}

	// At an impossible capacity every variant fails and the sentinel
	// surfaces.
	if _, err := PartitionCtx(context.Background(), net, shrunkTree(t, 1<<20), variants...); !errors.Is(err, ErrNoFeasiblePlan) {
		t.Errorf("all-infeasible portfolio returned %v, want ErrNoFeasiblePlan", err)
	}
}

// TestConstrainedDeterminism: the constrained search is a pure function
// of its inputs — repeated runs at a binding capacity yield identical
// plans.
func TestConstrainedDeterminism(t *testing.T) {
	net := buildNet(t, "resnet18", 128)
	opt := AccPar()
	opt.MemoryLimit = MemoryReject
	var want []byte
	for i := 0; i < 3; i++ {
		plan, err := PartitionCtx(context.Background(), net, shrunkTree(t, 128), opt)
		if err != nil {
			t.Fatal(err)
		}
		got := planJSON(t, plan)
		if want == nil {
			want = got
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("run %d differs from run 0", i)
		}
	}
}

// TestMemoryPrunedMetric: provably-infeasible subtrees are pruned inside
// the DP and counted.
func TestMemoryPrunedMetric(t *testing.T) {
	net := buildNet(t, "vgg16", 128)
	opt := AccPar()
	opt.MemoryLimit = MemoryPenalize
	before := obsMemoryPruned.Value()
	if _, err := PartitionCtx(context.Background(), net, shrunkTree(t, 1<<13), opt); err != nil {
		t.Fatal(err)
	}
	if after := obsMemoryPruned.Value(); after <= before {
		t.Errorf("memory_pruned_subtrees stayed at %d despite an impossible capacity", after)
	}
}

// TestSplitResidencySuperadditive checks the claim the capacity floors
// and the design-space pre-prune (MinResidencyBytes) rest on: the two
// children of a split together hold at least their parent's residency
// (residencyAtDims). It draws random splits — a type per unit, a ratio
// at either extreme, at 0.5 or anywhere between — and descends through
// random children several levels deep, on the golden-grid networks and
// on generated ones, in both modes and under every optimizer.
func TestSplitResidencySuperadditive(t *testing.T) {
	rnd := rand.New(rand.NewSource(11))
	var nets []*dnn.Network
	for _, model := range append(models.EvaluationOrder(), "inception") {
		nets = append(nets, buildNet(t, model, 512))
	}
	for seed := int64(1); seed <= 40; seed++ {
		net, err := workload.GenerateNetwork(seed, workload.Config{ResidualProb: 0.5, MaxLayers: 16})
		if err != nil {
			t.Fatal(err)
		}
		nets = append(nets, net)
	}
	ratios := []float64{cost.MinRatio, 1 - cost.MinRatio, 0.5}
	splits := 0
	for _, net := range nets {
		s := newSearchShape(net, AccPar().withDefaults())
		types := make([]cost.Type, len(s.units))
		for rep := 0; rep < 16; rep++ {
			opt := Options{Mode: Mode(rnd.Intn(2)), Optimizer: optimizer.Kinds[rnd.Intn(len(optimizer.Kinds))]}
			dims := s.rootDims
			for depth := 0; depth < 10; depth++ {
				for u := range types {
					types[u] = cost.Types[rnd.Intn(3)]
				}
				ratio := cost.ClampRatio(rnd.Float64())
				if k := rnd.Intn(2 * len(ratios)); k < len(ratios) {
					ratio = ratios[k]
				}
				left, right := s.scaled(dims, types, ratio), s.scaled(dims, types, 1-ratio)
				parent := residencyAtDims(s.consts, dims, opt)
				if sum := residencyAtDims(s.consts, left, opt) + residencyAtDims(s.consts, right, opt); sum < parent {
					t.Fatalf("%s (mode %v, %v) depth %d, ratio %v: children hold %d bytes, parent %d", net.Name, opt.Mode, opt.Optimizer, depth, ratio, sum, parent)
				}
				splits++
				dims = left
				if rnd.Intn(2) == 0 {
					dims = right
				}
			}
		}
	}
	t.Logf("%d splits over %d networks", splits, len(nets))
}
