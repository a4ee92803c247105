// Package hardware models accelerator arrays for the AccPar cost model:
// individual accelerator specifications (Table 7 of the paper: TPU-v2 and
// TPU-v3 boards), flat arrays, and the recursive bi-partition hierarchy the
// layer-wise partitioning descends (Section 5.1: "apply the layer-wise
// partitioning recursively on a partitioned hierarchy").
package hardware

import (
	"fmt"
	"math"
	"strconv"
)

// Spec describes one accelerator board.
type Spec struct {
	// Name identifies the accelerator model, e.g. "tpu-v2".
	Name string
	// FLOPS is the peak floating-point throughput in operations per second
	// — the computation density c_i of the cost model.
	FLOPS float64
	// HBMBytes is the on-board high-bandwidth-memory capacity in bytes.
	HBMBytes int64
	// MemBandwidth is the HBM bandwidth in bytes per second.
	MemBandwidth float64
	// NetBandwidth is the inter-accelerator network data rate in bytes per
	// second — the b_i of the cost model.
	NetBandwidth float64
}

// CapacityError reports a spec whose HBM capacity is zero or negative.
// Such a capacity would flow silently into every leaf's LeafHBMBytes,
// making each plan "overflow" in reports and unconditionally infeasible
// under a memory-constrained search; the typed error lets construction
// and parse paths reject it at the source, like the NaN/Inf hardening of
// the rate fields below.
type CapacityError struct {
	// Name is the offending spec's name.
	Name string
	// HBMBytes is the rejected capacity value.
	HBMBytes int64
}

func (e *CapacityError) Error() string {
	return fmt.Sprintf("hardware: spec %q has non-positive HBM capacity %d bytes", e.Name, e.HBMBytes)
}

// Validate reports an error for non-positive or non-finite spec fields.
// NaN and ±Inf are rejected explicitly: a NaN rate passes a plain
// non-positive check (NaN comparisons are false) and then poisons every
// downstream division with NaN costs. Zero or negative HBM capacity
// yields a typed *CapacityError.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("hardware: spec with empty name")
	}
	if s.HBMBytes <= 0 {
		return &CapacityError{Name: s.Name, HBMBytes: s.HBMBytes}
	}
	for _, v := range [...]float64{s.FLOPS, s.MemBandwidth, s.NetBandwidth} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("hardware: spec %q has non-positive or non-finite fields: %+v", s.Name, s)
		}
	}
	return nil
}

const (
	// Tera is 10^12.
	Tera = 1e12
	// Giga is 10^9.
	Giga = 1e9
	// GiB is 2^30 bytes.
	GiB = int64(1) << 30
)

// TPUv2 returns the TPU-v2 board specification from Table 7 of the paper:
// 180 TFLOPS, 64 GB HBM, 2400 GB/s memory bandwidth, and an 8 Gb/s network
// data rate (4 chips × 2 cores at a 2 Gb/s maximum per-core rate; the paper
// sets 8 Gb/s for the board).
func TPUv2() Spec {
	return Spec{
		Name:         "tpu-v2",
		FLOPS:        180 * Tera,
		HBMBytes:     64 * GiB,
		MemBandwidth: 2400 * Giga,
		NetBandwidth: 8 * Giga / 8, // 8 Gb/s → bytes/s
	}
}

// TPUv3 returns the TPU-v3 board specification from Table 7: 420 TFLOPS,
// 128 GB HBM, an assumed 4800 GB/s memory bandwidth, and a 16 Gb/s network
// data rate.
func TPUv3() Spec {
	return Spec{
		Name:         "tpu-v3",
		FLOPS:        420 * Tera,
		HBMBytes:     128 * GiB,
		MemBandwidth: 4800 * Giga,
		NetBandwidth: 16 * Giga / 8, // 16 Gb/s → bytes/s
	}
}

// Array is an ordered collection of accelerators, held as its maximal
// runs of identical boards.
type Array struct {
	// Name labels the array, e.g. "128×tpu-v2 + 128×tpu-v3".
	Name    string
	members span
}

// NewHomogeneous returns an array of n identical accelerators.
func NewHomogeneous(spec Spec, n int) (*Array, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("hardware: array needs at least 1 accelerator, got %d", n)
	}
	return newArray(fmt.Sprintf("%d×%s", n, spec.Name), GroupSpec{spec, n})
}

// NewHeterogeneous returns an array mixing the given accelerator groups.
// The paper's evaluation array is NewHeterogeneous(128×TPU-v2, 128×TPU-v3).
func NewHeterogeneous(groups ...GroupSpec) (*Array, error) {
	if len(groups) == 0 {
		return nil, fmt.Errorf("hardware: heterogeneous array needs at least one group")
	}
	name := make([]byte, 0, 64) // on the stack for most fleets
	for i, g := range groups {
		if i > 0 {
			name = append(name, " + "...)
		}
		name = strconv.AppendInt(name, int64(g.Count), 10)
		name = append(name, "×"...)
		name = append(name, g.Spec.Name...)
	}
	return newArray(string(name), groups...)
}

// newArray returns the array of the groups' boards in order. Adjacent
// groups of identical boards share one run.
func newArray(name string, groups ...GroupSpec) (*Array, error) {
	a := &Array{Name: name, members: span{runs: make([]run, 0, len(groups))}}
	for _, g := range groups {
		if err := g.Spec.Validate(); err != nil {
			return nil, err
		}
		if g.Count < 1 {
			return nil, fmt.Errorf("hardware: group %q has count %d", g.Spec.Name, g.Count)
		}
		a.members.add(run{spec: g.Spec, fp: g.Spec.Fingerprint()}, g.Count)
	}
	return a, nil
}

// GroupSpec pairs a spec with a count for heterogeneous array construction.
type GroupSpec struct {
	Spec  Spec
	Count int
}

// Size returns the number of accelerators.
func (a *Array) Size() int { return a.members.hi }

// Heterogeneous reports whether the array mixes accelerator models.
func (a *Array) Heterogeneous() bool { return !a.members.homogeneous() }
