package tensor

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestShapeSize(t *testing.T) {
	cases := []struct {
		shape Shape
		want  int64
	}{
		{NewShape(4, 5), 20},           // paper's 4-by-5 matrix example
		{NewShape(16, 32, 3, 3), 4608}, // paper's kernel example
		{NewShape(1), 1},
		{NewShape(512, 1000), 512000},
		{NewShape(512, 64, 224, 224), 512 * 64 * 224 * 224},
	}
	for _, c := range cases {
		if got := c.shape.Size(); got != c.want {
			t.Errorf("Size(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestShapeBytes(t *testing.T) {
	s := NewShape(10, 10)
	if got := s.Bytes(); got != 200 {
		t.Errorf("Bytes = %d, want 200 (bfloat16 is 2 bytes/element)", got)
	}
}

func TestShapeEqualClone(t *testing.T) {
	a := NewShape(2, 3, 4)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatalf("clone %v not equal to original %v", b, a)
	}
	b[0] = 9
	if a.Equal(b) {
		t.Fatal("mutating a clone must not affect the original")
	}
	if a.Equal(NewShape(2, 3)) {
		t.Error("shapes of different rank must not be equal")
	}
	if a.Equal(NewShape(2, 3, 5)) {
		t.Error("shapes with different extents must not be equal")
	}
}

func TestShapeString(t *testing.T) {
	if got := NewShape(2, 3).String(); got != "(2, 3)" {
		t.Errorf("String = %q, want %q", got, "(2, 3)")
	}
}

func TestNewShapePanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewShape(0) must panic")
		}
	}()
	NewShape(4, 0)
}

func TestFCDims(t *testing.T) {
	d := FC(512, 4096, 1000)
	if !d.IsFC() {
		t.Fatal("FC dims must report IsFC")
	}
	if got := d.InputShape(); !got.Equal(NewShape(512, 4096)) {
		t.Errorf("InputShape = %v", got)
	}
	if got := d.OutputShape(); !got.Equal(NewShape(512, 1000)) {
		t.Errorf("OutputShape = %v", got)
	}
	if got := d.WeightShape(); !got.Equal(NewShape(4096, 1000)) {
		t.Errorf("WeightShape = %v", got)
	}
	if got, want := d.AW(), int64(4096*1000); got != want {
		t.Errorf("AW = %d, want %d", got, want)
	}
}

func TestConvDims(t *testing.T) {
	d := Conv(512, 64, 128, 56, 56, 56, 56, 3, 3)
	if d.IsFC() {
		t.Fatal("conv dims must not report IsFC")
	}
	if got := d.InputShape(); !got.Equal(NewShape(512, 64, 56, 56)) {
		t.Errorf("InputShape = %v", got)
	}
	if got := d.OutputShape(); !got.Equal(NewShape(512, 128, 56, 56)) {
		t.Errorf("OutputShape = %v", got)
	}
	if got := d.WeightShape(); !got.Equal(NewShape(64, 128, 3, 3)) {
		t.Errorf("WeightShape = %v", got)
	}
}

func TestLayerDimsValidate(t *testing.T) {
	good := FC(8, 4, 2)
	if err := good.Validate(); err != nil {
		t.Errorf("valid dims rejected: %v", err)
	}
	bad := good
	bad.Do = 0
	if err := bad.Validate(); err == nil {
		t.Error("Do=0 must be rejected")
	}
	bad = good
	bad.KH = -1
	if err := bad.Validate(); err == nil {
		t.Error("KH=-1 must be rejected")
	}
}

func TestScale(t *testing.T) {
	d := FC(100, 200, 300)
	if got := d.Scale(DimB, 0.5).B; got != 50 {
		t.Errorf("Scale(DimB, 0.5).B = %d, want 50", got)
	}
	if got := d.Scale(DimDi, 0.25).Di; got != 50 {
		t.Errorf("Scale(DimDi, 0.25).Di = %d, want 50", got)
	}
	if got := d.Scale(DimDo, 0.1).Do; got != 30 {
		t.Errorf("Scale(DimDo, 0.1).Do = %d, want 30", got)
	}
	// Scaling never drops below 1.
	if got := d.Scale(DimB, 0.0001).B; got != 1 {
		t.Errorf("Scale floor violated: got %d, want 1", got)
	}
	// Scaling one dim leaves the others alone.
	s := d.Scale(DimB, 0.5)
	if s.Di != d.Di || s.Do != d.Do {
		t.Error("Scale(DimB) must not touch Di/Do")
	}
}

func TestDimString(t *testing.T) {
	if DimB.String() != "B" || DimDi.String() != "D_i" || DimDo.String() != "D_o" {
		t.Error("Dim.String must match the paper's notation")
	}
}

// TestFLOPTable6FC verifies the Table 6 formulas for fully-connected layers
// against first-principles counts.
func TestFLOPTable6FC(t *testing.T) {
	d := FC(8, 16, 32) // B=8, Di=16, Do=32
	// Forward: (B·Do) outputs × (Di mults + Di−1 adds).
	wantF := int64(8*32) * (2*16 - 1)
	if got := ForwardFLOPs(d); got != wantF {
		t.Errorf("ForwardFLOPs = %d, want %d", got, wantF)
	}
	// Backward: (B·Di) outputs × (2·Do − 1).
	wantB := int64(8*16) * (2*32 - 1)
	if got := BackwardFLOPs(d); got != wantB {
		t.Errorf("BackwardFLOPs = %d, want %d", got, wantB)
	}
	// Gradient: (Di·Do) outputs × (2·B − 1).
	wantG := int64(16*32) * (2*8 - 1)
	if got := GradientFLOPs(d); got != wantG {
		t.Errorf("GradientFLOPs = %d, want %d", got, wantG)
	}
	if got := TrainingFLOPs(d); got != wantF+wantB+wantG {
		t.Errorf("TrainingFLOPs = %d, want %d", got, wantF+wantB+wantG)
	}
}

// TestFLOPConvExtension verifies the Section 4.3 convolution extension: the
// Table 6 entries are multiplied by the 2D feature-map or kernel size.
func TestFLOPConvExtension(t *testing.T) {
	d := Conv(4, 3, 8, 10, 10, 10, 10, 3, 3)
	// Forward: per output element, Di·KH·KW mults and that minus one adds.
	wantF := d.AFNext() * (2*int64(3*3*3) - 1)
	if got := ForwardFLOPs(d); got != wantF {
		t.Errorf("conv ForwardFLOPs = %d, want %d", got, wantF)
	}
	wantB := d.AF() * (2*int64(8*3*3) - 1)
	if got := BackwardFLOPs(d); got != wantB {
		t.Errorf("conv BackwardFLOPs = %d, want %d", got, wantB)
	}
	wantG := d.AW() * (2*int64(4*10*10) - 1)
	if got := GradientFLOPs(d); got != wantG {
		t.Errorf("conv GradientFLOPs = %d, want %d", got, wantG)
	}
}

// TestFLOPConvReducesToFC: a 1×1-spatial convolution must count exactly like
// the FC formula — the paper derives CONV as a strict generalization.
func TestFLOPConvReducesToFC(t *testing.T) {
	fc := FC(16, 128, 64)
	conv := Conv(16, 128, 64, 1, 1, 1, 1, 1, 1)
	if ForwardFLOPs(fc) != ForwardFLOPs(conv) ||
		BackwardFLOPs(fc) != BackwardFLOPs(conv) ||
		GradientFLOPs(fc) != GradientFLOPs(conv) {
		t.Error("1×1 conv FLOPs must equal FC FLOPs")
	}
}

// randomDims generates valid LayerDims for property tests.
func randomDims(r *rand.Rand) LayerDims {
	return LayerDims{
		B:    1 + r.Intn(64),
		Di:   1 + r.Intn(64),
		Do:   1 + r.Intn(64),
		HIn:  1 + r.Intn(16),
		WIn:  1 + r.Intn(16),
		HOut: 1 + r.Intn(16),
		WOut: 1 + r.Intn(16),
		KH:   1 + r.Intn(5),
		KW:   1 + r.Intn(5),
	}
}

// TestPropertyFLOPsPositive: every FLOP count is strictly positive for valid
// dims, and training FLOPs strictly exceed inference FLOPs.
func TestPropertyFLOPsPositive(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDims(rand.New(rand.NewSource(seed)))
		return ForwardFLOPs(d) > 0 && BackwardFLOPs(d) > 0 && GradientFLOPs(d) > 0 &&
			TrainingFLOPs(d) > ForwardFLOPs(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyFLOPsMonotone: growing the batch size never decreases any
// phase's FLOPs.
func TestPropertyFLOPsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		d := randomDims(rand.New(rand.NewSource(seed)))
		big := d
		big.B = d.B * 2
		return ForwardFLOPs(big) >= ForwardFLOPs(d) &&
			BackwardFLOPs(big) >= BackwardFLOPs(d) &&
			GradientFLOPs(big) >= GradientFLOPs(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertySizeMultiplicative: A(·) is multiplicative over concatenated
// shapes.
func TestPropertySizeMultiplicative(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := NewShape(1+r.Intn(20), 1+r.Intn(20))
		b := NewShape(1+r.Intn(20), 1+r.Intn(20))
		joint := NewShape(append(a.Clone(), b...)...)
		return joint.Size() == a.Size()*b.Size()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPropertyScaleBounds: scaling with ratio in (0,1] never increases the
// dimension and never produces a value below 1.
func TestPropertyScaleBounds(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d := randomDims(r)
		ratio := r.Float64()
		if ratio == 0 {
			ratio = 0.5
		}
		for _, dim := range []Dim{DimB, DimDi, DimDo} {
			s := d.Scale(dim, ratio)
			if err := s.Validate(); err != nil {
				return false
			}
		}
		// With ratio well under 1, scaled B must not exceed original
		// (rounding can add at most 0.5).
		s := d.Scale(DimB, 0.4)
		return s.B <= d.B || d.B == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// InputShape returns the shape of F_l (and E_l): (B, Di, HIn, WIn), or
// (B, Di) for a fully-connected layer.
func (d LayerDims) InputShape() Shape {
	if d.IsFC() {
		return NewShape(d.B, d.Di)
	}
	return NewShape(d.B, d.Di, d.HIn, d.WIn)
}

// OutputShape returns the shape of F_{l+1} (and E_{l+1}): (B, Do, HOut, WOut),
// or (B, Do) for a fully-connected layer.
func (d LayerDims) OutputShape() Shape {
	if d.IsFC() {
		return NewShape(d.B, d.Do)
	}
	return NewShape(d.B, d.Do, d.HOut, d.WOut)
}

// WeightShape returns the shape of W_l (and ΔW_l): (Di, Do, KH, KW), or
// (Di, Do) for a fully-connected layer.
func (d LayerDims) WeightShape() Shape {
	if d.IsFC() {
		return NewShape(d.Di, d.Do)
	}
	return NewShape(d.Di, d.Do, d.KH, d.KW)
}

// Scale returns a copy of the dims with one logical dimension scaled by
// ratio (used when descending the partitioning hierarchy: a child group that
// received ratio α of a Type-I partition sees an effective batch of α·B).
// The scaled extent follows ScaleExtent. dim must be one of DimB, DimDi,
// DimDo.
func (d LayerDims) Scale(dim Dim, ratio float64) LayerDims {
	switch dim {
	case DimB:
		d.B = int(ScaleExtent(int64(d.B), ratio))
	case DimDi:
		d.Di = int(ScaleExtent(int64(d.Di), ratio))
	case DimDo:
		d.Do = int(ScaleExtent(int64(d.Do), ratio))
	default:
		panic(fmt.Sprintf("tensor: unknown dimension %v", dim))
	}
	return d
}
