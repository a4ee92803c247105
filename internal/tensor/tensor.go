// Package tensor provides the tensor-shape arithmetic that underlies the
// AccPar cost model: the size function A(·), the FLOP-count function C(·)
// for the three tensor multiplications of DNN training (Table 6 of the
// paper), and byte sizing for the bfloat16 data format used in Section 6.1.
//
// Everything in this package is pure shape arithmetic: the AccPar
// partitioning problem depends only on tensor shapes, never on tensor
// values.
package tensor

import (
	"fmt"
	"strings"
)

// BytesPerElement is the size of one tensor element in bytes. The paper's
// evaluation (Section 6.1) uses bfloat, Google's 16-bit floating point
// training format.
const BytesPerElement = 2

// Shape is the extent of a tensor in each dimension, outermost first.
// A fully-connected feature map is (B, D); a convolutional feature map is
// (B, C, H, W); a convolution kernel is (Cin, Cout, KH, KW).
type Shape []int

// NewShape returns a Shape with the given extents. It panics if any extent
// is non-positive, because a zero- or negative-extent tensor is always a
// construction bug in this domain.
func NewShape(dims ...int) Shape {
	for _, d := range dims {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension %d in shape %v", d, dims))
		}
	}
	s := make(Shape, len(dims))
	copy(s, dims)
	return s
}

// Rank returns the number of dimensions.
func (s Shape) Rank() int { return len(s) }

// Size implements the paper's A(·) function: the product of the lengths of
// all dimensions. The size of a 4-by-5 matrix is 20; the size of a kernel
// with 16 input channels, a 3×3 window and 32 output channels is 4,608.
func (s Shape) Size() int64 {
	n := int64(1)
	for _, d := range s {
		n *= int64(d)
	}
	return n
}

// Bytes returns the storage footprint of the tensor in bfloat16.
func (s Shape) Bytes() int64 { return s.Size() * BytesPerElement }

// Equal reports whether two shapes have identical rank and extents.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape as (d0, d1, ...).
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// LayerDims captures every extent the AccPar cost model needs about one
// weighted layer (Table 1 of the paper, extended to convolutions per
// Section 3.3/4.3). A fully-connected layer is the special case where all
// spatial extents are 1.
type LayerDims struct {
	// B is the mini-batch size.
	B int
	// Di is the input data size (input channel count), D_{i,l}.
	Di int
	// Do is the output data size (output channel count), D_{o,l}.
	Do int
	// HIn, WIn are the spatial extents of the input feature map F_l.
	HIn, WIn int
	// HOut, WOut are the spatial extents of the output feature map F_{l+1}.
	HOut, WOut int
	// KH, KW are the kernel window extents of W_l.
	KH, KW int
}

// FC returns the dims of a fully-connected layer: all spatial extents 1.
func FC(b, di, do int) LayerDims {
	return LayerDims{B: b, Di: di, Do: do, HIn: 1, WIn: 1, HOut: 1, WOut: 1, KH: 1, KW: 1}
}

// Conv returns the dims of a convolutional layer.
func Conv(b, di, do, hin, win, hout, wout, kh, kw int) LayerDims {
	return LayerDims{B: b, Di: di, Do: do, HIn: hin, WIn: win, HOut: hout, WOut: wout, KH: kh, KW: kw}
}

// Validate reports an error if any extent is non-positive.
func (d LayerDims) Validate() error {
	fields := []struct {
		name string
		v    int
	}{
		{"B", d.B}, {"Di", d.Di}, {"Do", d.Do},
		{"HIn", d.HIn}, {"WIn", d.WIn}, {"HOut", d.HOut}, {"WOut", d.WOut},
		{"KH", d.KH}, {"KW", d.KW},
	}
	for _, f := range fields {
		if f.v <= 0 {
			return fmt.Errorf("tensor: LayerDims.%s = %d, must be positive", f.name, f.v)
		}
	}
	return nil
}

// IsFC reports whether the dims describe a fully-connected layer
// (all spatial extents equal to one).
func (d LayerDims) IsFC() bool {
	return d.HIn == 1 && d.WIn == 1 && d.HOut == 1 && d.WOut == 1 && d.KH == 1 && d.KW == 1
}

// AF returns A(F_l) = A(E_l), the input feature-map / error size: the
// size of the shape (B, Di, HIn, WIn), or (B, Di) for a fully-connected
// layer, multiplied out directly because the planner's hot paths call it
// per unit per subproblem.
func (d LayerDims) AF() int64 {
	if d.IsFC() {
		return size2(d.B, d.Di)
	}
	return size4(d.B, d.Di, d.HIn, d.WIn)
}

// AFNext returns A(F_{l+1}) = A(E_{l+1}), the output feature-map / error
// size: the size of the shape (B, Do, HOut, WOut), or (B, Do).
func (d LayerDims) AFNext() int64 {
	if d.IsFC() {
		return size2(d.B, d.Do)
	}
	return size4(d.B, d.Do, d.HOut, d.WOut)
}

// AW returns A(W_l) = A(ΔW_l), the kernel size: the size of the shape
// (Di, Do, KH, KW), or (Di, Do).
func (d LayerDims) AW() int64 {
	if d.IsFC() {
		return size2(d.Di, d.Do)
	}
	return size4(d.Di, d.Do, d.KH, d.KW)
}

// size2 and size4 are NewShape(...).Size() without building the shape,
// keeping NewShape's panic on a non-positive extent. They are fixed-arity
// because a variadic helper's argument slice would escape through the
// panic message and allocate on every call.
func size2(a, b int) int64 {
	if a <= 0 || b <= 0 {
		NewShape(a, b)
	}
	return int64(a) * int64(b)
}

func size4(a, b, c, d int) int64 {
	if a <= 0 || b <= 0 || c <= 0 || d <= 0 {
		NewShape(a, b, c, d)
	}
	return int64(a) * int64(b) * int64(c) * int64(d)
}

// ScaleExtent is the split rule for one extent: a child that receives
// ratio of an extent v gets v·ratio rounded to the nearest integer, kept
// at a minimum of 1. The planner's search calls it, and the array
// simulator through core.ScaleUnitDims, so the rule lives in one place.
func ScaleExtent(v int64, ratio float64) int64 {
	s := int64(float64(v)*ratio + 0.5)
	if s < 1 {
		s = 1
	}
	return s
}

// Dim identifies one of the three partitionable dimensions of the tensor
// computing phases (Section 3.2: only B, D_{i,l} and D_{o,l} appear).
type Dim int

const (
	// DimB is the mini-batch dimension.
	DimB Dim = iota
	// DimDi is the input data size (input channel) dimension.
	DimDi
	// DimDo is the output data size (output channel) dimension.
	DimDo
)

// String names the dimension as in the paper.
func (d Dim) String() string {
	switch d {
	case DimB:
		return "B"
	case DimDi:
		return "D_i"
	case DimDo:
		return "D_o"
	default:
		return fmt.Sprintf("Dim(%d)", int(d))
	}
}
