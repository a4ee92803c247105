package tensor

// This file implements the paper's C(·) function: the amount of floating
// point operations (FLOP) in the three tensor multiplications of DNN
// training (Table 6), extended to convolutional layers per Section 4.3.
//
// For a matrix multiplication M_C = M_A × M_B with inner dimension P, the
// FLOP count is A(M_C)·(P + P − 1): each of the A(M_C) output elements takes
// P multiplications and P−1 additions. For a convolution the inner
// "dimension" becomes (input channels)·(kernel height)·(kernel width) in the
// forward phase — and analogously for the backward and gradient phases — so
// the Table 6 entries are multiplied by the 2D feature-map or kernel size.

// ForwardFLOPs returns C(F_l × W_l): the FLOPs of the forward phase
// F_{l+1} = F_l × W_l (or F_l ⊛ W_l for convolutions).
//
// FC:   A(F_{l+1}) · (2·D_i − 1)
// CONV: A(F_{l+1}) · (2·D_i·KH·KW − 1)
func ForwardFLOPs(d LayerDims) int64 {
	inner := int64(d.Di) * int64(d.KH) * int64(d.KW)
	return d.AFNext() * (2*inner - 1)
}

// BackwardFLOPs returns C(E_{l+1} × W_l^T): the FLOPs of the backward phase
// E_l = E_{l+1} × W_l^T.
//
// FC:   A(E_l) · (2·D_o − 1)
// CONV: A(E_l) · (2·D_o·KH·KW − 1)
func BackwardFLOPs(d LayerDims) int64 {
	inner := int64(d.Do) * int64(d.KH) * int64(d.KW)
	return d.AF() * (2*inner - 1)
}

// GradientFLOPs returns C(F_l^T × E_{l+1}): the FLOPs of the gradient phase
// ΔW_l = F_l^T × E_{l+1}.
//
// FC:   A(W_l) · (2·B − 1)
// CONV: A(W_l) · (2·B·HOut·WOut − 1) — each kernel element accumulates one
// product per (batch, output position) pair.
func GradientFLOPs(d LayerDims) int64 {
	inner := int64(d.B) * int64(d.HOut) * int64(d.WOut)
	return d.AW() * (2*inner - 1)
}

// TrainingFLOPs returns the total FLOPs of one training iteration of the
// layer: forward + backward + gradient.
func TrainingFLOPs(d LayerDims) int64 {
	return ForwardFLOPs(d) + BackwardFLOPs(d) + GradientFLOPs(d)
}
