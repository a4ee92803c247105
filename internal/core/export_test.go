package core

import (
	"accpar/internal/hardware"
	"accpar/internal/tensor"
)

// SubproblemKey exposes the memo key to the external test package.
func SubproblemKey(node *hardware.Tree, dims []tensor.LayerDims) [16]byte {
	return (*planner)(nil).subproblemKey(node, dims)
}
