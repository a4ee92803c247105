package cost

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"accpar/internal/tensor"
)

func dims() tensor.LayerDims { return tensor.FC(8, 16, 32) }

func TestTypeBasics(t *testing.T) {
	if len(Types) != 3 {
		t.Fatalf("Types = %d, want 3 (complete space)", len(Types))
	}
	if TypeI.String() != "Type-I" || TypeII.String() != "Type-II" || TypeIII.String() != "Type-III" {
		t.Error("type names must match the paper")
	}
	if TypeI.Short() != "I" || TypeII.Short() != "II" || TypeIII.Short() != "III" {
		t.Error("short names wrong")
	}
	if TypeI.Dim() != tensor.DimB || TypeII.Dim() != tensor.DimDi || TypeIII.Dim() != tensor.DimDo {
		t.Error("partitioned dimensions must be B, D_i, D_o respectively")
	}
}

// TestPsumPhases pins Section 3.2: the phase requiring partial-sum exchange
// rotates across the types.
func TestPsumPhases(t *testing.T) {
	if TypeI.PsumPhase() != PhaseGradient {
		t.Error("Type-I psum phase must be gradient (Eq. 4)")
	}
	if TypeII.PsumPhase() != PhaseForward {
		t.Error("Type-II psum phase must be forward (Eq. 5)")
	}
	if TypeIII.PsumPhase() != PhaseBackward {
		t.Error("Type-III psum phase must be backward (Eq. 6)")
	}
	seen := map[Phase]bool{}
	for _, ty := range Types {
		seen[ty.PsumPhase()] = true
	}
	if len(seen) != 3 {
		t.Error("each type must incur psum exchange in a distinct phase")
	}
}

// TestIntraLayerTable4 pins the Table 4 entries.
func TestIntraLayerTable4(t *testing.T) {
	d := dims() // B=8, Di=16, Do=32
	if got, want := IntraCommElements(TypeI, d), d.AW(); got != want {
		t.Errorf("Type-I intra = %d, want A(W_l) = %d", got, want)
	}
	if got, want := IntraCommElements(TypeII, d), d.AFNext(); got != want {
		t.Errorf("Type-II intra = %d, want A(F_{l+1}) = %d", got, want)
	}
	if got, want := IntraCommElements(TypeIII, d), d.AF(); got != want {
		t.Errorf("Type-III intra = %d, want A(E_l) = %d", got, want)
	}
}

// TestIntraLayerConv checks the same entries on a convolutional layer,
// where A(·) includes spatial extents.
func TestIntraLayerConv(t *testing.T) {
	d := tensor.Conv(4, 3, 8, 10, 10, 5, 5, 3, 3)
	if got, want := IntraCommElements(TypeI, d), int64(3*8*3*3); got != want {
		t.Errorf("conv Type-I intra = %d, want %d", got, want)
	}
	if got, want := IntraCommElements(TypeII, d), int64(4*8*5*5); got != want {
		t.Errorf("conv Type-II intra = %d, want %d", got, want)
	}
	if got, want := IntraCommElements(TypeIII, d), int64(4*3*10*10); got != want {
		t.Errorf("conv Type-III intra = %d, want %d", got, want)
	}
}

// TestRotationalSymmetry verifies the Table 3 observation: across the three
// multiplications, the partition dimension (B, D_i, D_o) and the psum-shape
// tensor rotate — concretely, the set of intra-layer communication tensors
// {A(W), A(F_{l+1}), A(E_l)} is hit exactly once each across the types.
func TestRotationalSymmetry(t *testing.T) {
	d := tensor.Conv(6, 5, 7, 9, 9, 9, 9, 3, 3)
	got := map[int64]int{}
	for _, ty := range Types {
		got[IntraCommElements(ty, d)]++
	}
	want := []int64{d.AW(), d.AFNext(), d.AF()}
	for _, w := range want {
		if got[w] != 1 {
			t.Errorf("psum tensor of size %d must appear exactly once, got %d", w, got[w])
		}
	}
	// And the partitioned dimensions are exactly {B, D_i, D_o}.
	seen := map[tensor.Dim]bool{}
	for _, ty := range Types {
		seen[ty.Dim()] = true
	}
	if !seen[tensor.DimB] || !seen[tensor.DimDi] || !seen[tensor.DimDo] {
		t.Error("the three types must partition the three distinct dimensions")
	}
}

// TestInterLayerTable5 pins all nine Table 5 entries for a fixed boundary.
func TestInterLayerTable5(t *testing.T) {
	const boundary = 1000
	alpha, beta := 0.7, 0.3
	cases := []struct {
		prev, next Type
		want       float64
	}{
		{TypeI, TypeI, 0},
		{TypeI, TypeII, alpha * beta * 2000},
		{TypeI, TypeIII, beta * 1000},
		{TypeII, TypeI, beta * 1000},
		{TypeII, TypeII, beta * 1000},
		{TypeII, TypeIII, 0},
		{TypeIII, TypeI, alpha * beta * 2000},
		{TypeIII, TypeII, 0},
		{TypeIII, TypeIII, beta * 1000},
	}
	for _, c := range cases {
		got := InterCommElements(c.prev, c.next, boundary, alpha, beta)
		if math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%v→%v = %g, want %g", c.prev, c.next, got, c.want)
		}
	}
}

// TestInterLayerZeroPatterns: exactly three of the nine patterns are free
// (a, f, h in Figure 2).
func TestInterLayerZeroPatterns(t *testing.T) {
	zero := 0
	for _, p := range Types {
		for _, n := range Types {
			if InterCommElements(p, n, 999, 0.6, 0.4) == 0 {
				zero++
			}
		}
	}
	if zero != 3 {
		t.Errorf("zero-cost transitions = %d, want 3", zero)
	}
}

// TestInterLayerSymmetricPairs: the paper notes (b)≡(g) and (c)≡(d)≡(e)≡(i)
// in cost (though not in conversion-tensor shape).
func TestInterLayerSymmetricPairs(t *testing.T) {
	const b = 512
	a, be := 0.55, 0.45
	if InterCommElements(TypeI, TypeII, b, a, be) != InterCommElements(TypeIII, TypeI, b, a, be) {
		t.Error("patterns (b) I→II and (g) III→I must cost the same")
	}
	c := InterCommElements(TypeI, TypeIII, b, a, be)
	for _, pair := range [][2]Type{{TypeII, TypeI}, {TypeII, TypeII}, {TypeIII, TypeIII}} {
		if got := InterCommElements(pair[0], pair[1], b, a, be); got != c {
			t.Errorf("pattern %v→%v = %g, want %g (same as I→III)", pair[0], pair[1], got, c)
		}
	}
}

// TestInterLayerAlphaBetaDirectionSymmetry: for the αβ patterns the two
// directions cost the same ((1−α)(1−β) = βα); for β patterns the peer pays
// the α slab.
func TestInterLayerAlphaBetaDirectionSymmetry(t *testing.T) {
	const b = 100
	alpha, beta := 0.8, 0.2
	// αβ pattern: both directions equal.
	d1 := InterCommElements(TypeI, TypeII, b, alpha, beta)
	d2 := InterCommElements(TypeI, TypeII, b, beta, alpha)
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("I→II direction costs differ: %g vs %g", d1, d2)
	}
	// β pattern: side i pays β·A, side j pays α·A.
	s1 := InterCommElements(TypeII, TypeI, b, alpha, beta)
	s2 := InterCommElements(TypeII, TypeI, b, beta, alpha)
	if math.Abs(s1-beta*b) > 1e-12 || math.Abs(s2-alpha*b) > 1e-12 {
		t.Errorf("II→I direction costs = %g, %g; want %g, %g", s1, s2, beta*b, alpha*b)
	}
}

// TestEqualRatioReducesToHyPar: with α=β=0.5 the Table 5 entries collapse
// to the homogeneous (HyPar-style) costs: αβ → 0.25, β → 0.5.
func TestEqualRatioReducesToHyPar(t *testing.T) {
	const b = 1000
	if got := InterCommElements(TypeI, TypeII, b, 0.5, 0.5); got != 0.25*2*b {
		t.Errorf("I→II at 0.5 = %g, want %g", got, 0.25*2.0*b)
	}
	if got := InterCommElements(TypeII, TypeI, b, 0.5, 0.5); got != 0.5*b {
		t.Errorf("II→I at 0.5 = %g, want %g", got, 0.5*b)
	}
}

// TestClampRatio: ratios outside [MinRatio, 1−MinRatio] clamp to the
// nearest bound, and interior ratios pass through unchanged.
func TestClampRatio(t *testing.T) {
	if got := ClampRatio(-1); got != MinRatio {
		t.Errorf("ClampRatio(-1) = %g, want MinRatio", got)
	}
	if got := ClampRatio(2); got != 1-MinRatio {
		t.Errorf("ClampRatio(2) = %g, want 1-MinRatio", got)
	}
	if got := ClampRatio(0.3); got != 0.3 {
		t.Errorf("ClampRatio(0.3) = %g, want 0.3", got)
	}
}

// TestPropertyInterCommNonNegative: no transition ever has negative cost,
// and cost scales linearly with the boundary size.
func TestPropertyInterCommNonNegative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := ClampRatio(r.Float64())
		beta := 1 - alpha
		b := int64(1 + r.Intn(1_000_000))
		p := Types[r.Intn(3)]
		n := Types[r.Intn(3)]
		c1 := InterCommElements(p, n, b, alpha, beta)
		c2 := InterCommElements(p, n, 2*b, alpha, beta)
		return c1 >= 0 && math.Abs(c2-2*c1) < 1e-6*(1+c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyInterCommBounded: remote access never exceeds the whole
// boundary tensor pair (2·A).
func TestPropertyInterCommBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		alpha := ClampRatio(r.Float64())
		b := int64(1 + r.Intn(1_000_000))
		for _, p := range Types {
			for _, n := range Types {
				if InterCommElements(p, n, b, alpha, 1-alpha) > 2*float64(b)+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPhaseString names all phases.
func TestPhaseString(t *testing.T) {
	if PhaseForward.String() != "forward" || PhaseBackward.String() != "backward" || PhaseGradient.String() != "gradient" {
		t.Error("phase names wrong")
	}
}

// TestInterCommSplitComponents: the F/E decomposition of every pattern
// sums to the Table 5 total and puts each component in the right phase.
func TestInterCommSplitComponents(t *testing.T) {
	const b = 500
	alpha, beta := 0.6, 0.4
	for _, p := range Types {
		for _, n := range Types {
			f, e := InterCommSplit(p, n, b, alpha, beta)
			if f < 0 || e < 0 {
				t.Fatalf("%v→%v: negative component", p, n)
			}
			total := InterCommElements(p, n, b, alpha, beta)
			if d := f + e - total; d > 1e-9 || d < -1e-9 {
				t.Errorf("%v→%v: %g+%g != %g", p, n, f, e, total)
			}
		}
	}
	// Directional checks: I→III converts the feature map only; II→I the
	// error only; I→II both.
	if f, e := InterCommSplit(TypeI, TypeIII, b, alpha, beta); f == 0 || e != 0 {
		t.Errorf("I→III split = %g/%g, want F only", f, e)
	}
	if f, e := InterCommSplit(TypeII, TypeI, b, alpha, beta); f != 0 || e == 0 {
		t.Errorf("II→I split = %g/%g, want E only", f, e)
	}
	if f, e := InterCommSplit(TypeI, TypeII, b, alpha, beta); f == 0 || e == 0 || f != e {
		t.Errorf("I→II split = %g/%g, want equal F and E", f, e)
	}
}

// TestIntraCommInference: inference runs the forward phase only, so of
// the Table 4 exchanges only the one of a type whose partial sums fall in
// the forward phase remains: Type-II's F_{l+1}.
func TestIntraCommInference(t *testing.T) {
	d := tensor.Conv(4, 3, 8, 6, 6, 6, 6, 3, 3)
	for _, ty := range Types {
		if forward := ty.PsumPhase() == PhaseForward; forward != (ty == TypeII) {
			t.Errorf("%v partial sums in the forward phase = %v", ty, forward)
		}
	}
	if got := IntraCommElements(TypeII, d); got != d.AFNext() {
		t.Errorf("Type-II inference = %d, want %d", got, d.AFNext())
	}
}
