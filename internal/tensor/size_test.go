package tensor

import (
	"math/rand"
	"testing"
)

// sizeDims returns random FC and conv dims with all extents positive.
func sizeDims(rnd *rand.Rand) []LayerDims {
	ext := func() int { return 1 + rnd.Intn(300) }
	var out []LayerDims
	for i := 0; i < 200; i++ {
		out = append(out,
			FC(ext(), ext(), ext()),
			Conv(ext(), ext(), ext(), ext(), ext(), ext(), ext(), 1+rnd.Intn(7), 1+rnd.Intn(7)))
	}
	return out
}

// TestSizesMatchShapes: AF, AFNext and AW are exactly the Size of the
// shapes they describe, on FC and conv dims.
func TestSizesMatchShapes(t *testing.T) {
	for _, d := range sizeDims(rand.New(rand.NewSource(1))) {
		if got, want := d.AF(), d.InputShape().Size(); got != want {
			t.Errorf("%+v: AF = %d, InputShape().Size() = %d", d, got, want)
		}
		if got, want := d.AFNext(), d.OutputShape().Size(); got != want {
			t.Errorf("%+v: AFNext = %d, OutputShape().Size() = %d", d, got, want)
		}
		if got, want := d.AW(), d.WeightShape().Size(); got != want {
			t.Errorf("%+v: AW = %d, WeightShape().Size() = %d", d, got, want)
		}
	}
}

var sizeSink int64

// TestSizesAllocFree: the size functions sit on the planner's hot paths
// and must not allocate.
func TestSizesAllocFree(t *testing.T) {
	for _, d := range []LayerDims{FC(512, 4096, 1000), Conv(512, 64, 128, 56, 56, 28, 28, 3, 3)} {
		if n := testing.AllocsPerRun(100, func() { sizeSink += d.AF() + d.AFNext() + d.AW() }); n != 0 {
			t.Errorf("%+v: %v allocs per AF+AFNext+AW, want 0", d, n)
		}
	}
}

// panicMessage runs f and returns the value it panicked with (nil if it
// returned normally).
func panicMessage(f func()) (msg any) {
	defer func() { msg = recover() }()
	f()
	return nil
}

// TestSizesPanicLikeNewShape: a non-positive extent still panics, with
// the message NewShape gives for the same shape.
func TestSizesPanicLikeNewShape(t *testing.T) {
	fc := FC(8, 0, 4)
	conv := Conv(8, 16, 32, 7, -3, 7, 7, 3, 3)
	for _, c := range []struct {
		name string
		size func() int64
		want func() Shape
	}{
		{"FC AF", fc.AF, func() Shape { return NewShape(fc.B, fc.Di) }},
		{"FC AW", fc.AW, func() Shape { return NewShape(fc.Di, fc.Do) }},
		{"conv AF", conv.AF, func() Shape { return NewShape(conv.B, conv.Di, conv.HIn, conv.WIn) }},
		{"conv AFNext", Conv(8, 16, 0, 7, 7, 7, 7, 3, 3).AFNext, func() Shape { return NewShape(8, 0, 7, 7) }},
	} {
		want := panicMessage(func() { c.want() })
		got := panicMessage(func() { c.size() })
		if want == nil || got != want {
			t.Errorf("%s: panic %v, want %v", c.name, got, want)
		}
	}
}
