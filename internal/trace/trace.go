// Package trace derives tensor accessing traces (loading and storing) and
// partial-sum computation traces (MULT and ADD) for DNN training phases
// under each of the three basic tensor partitioning types — the methodology
// of the paper's in-house simulator (Section 6.1): "we derive the tensor
// accessing traces (loading and storing) and partial sum computation (MULT
// and ADD) traces for the simulation and then we calculate the time
// consuming for the computation and data accessing".
//
// Trace granularity follows the paper: element-wise (granule 1) for FC
// layers and kernel-wise (granule KH·KW) for CONV layers. A full
// per-element trace of an ImageNet-scale layer would need billions of
// records, so records carry a Count; Expand materializes singleton records
// for small layers and tests verify that expansion preserves every total
// exactly.
package trace

import (
	"fmt"

	"accpar/internal/cost"
	"accpar/internal/tensor"
)

// Op is the kind of one trace record.
type Op int

const (
	// OpLoad reads a tensor granule from local memory.
	OpLoad Op = iota
	// OpStore writes a tensor granule to local memory.
	OpStore
	// OpMult is one scalar multiplication.
	OpMult
	// OpAdd is one scalar addition.
	OpAdd
	// OpRemoteLoad reads a tensor granule from the peer accelerator across
	// the network.
	OpRemoteLoad
)

// String names the op.
func (o Op) String() string {
	switch o {
	case OpLoad:
		return "LOAD"
	case OpStore:
		return "STORE"
	case OpMult:
		return "MULT"
	case OpAdd:
		return "ADD"
	case OpRemoteLoad:
		return "RLOAD"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Record is one aggregated trace entry: Count granules of Granule elements
// each (for MULT/ADD, Granule counts scalar operations per granule).
type Record struct {
	Phase   cost.Phase
	Op      Op
	Tensor  string
	Count   int64
	Granule int64
}

// Elements returns Count·Granule.
func (r Record) Elements() int64 { return r.Count * r.Granule }

// Validate rejects non-positive counts or granules.
func (r Record) Validate() error {
	if r.Count < 0 || r.Granule <= 0 {
		return fmt.Errorf("trace: invalid record %+v", r)
	}
	return nil
}

// Trace is the ordered trace of one accelerator for one layer's training
// iteration.
type Trace struct {
	Records []Record
}

// Totals sums elements (or scalar ops) by op kind.
func (t *Trace) Totals() map[Op]int64 {
	m := map[Op]int64{}
	for _, r := range t.Records {
		m[r.Op] += r.Elements()
	}
	return m
}

// LocalBytes returns the local memory traffic in bytes (loads + stores).
func (t *Trace) LocalBytes() int64 {
	tot := t.Totals()
	return (tot[OpLoad] + tot[OpStore]) * tensor.BytesPerElement
}

// RemoteBytes returns the network traffic in bytes.
func (t *Trace) RemoteBytes() int64 {
	return t.Totals()[OpRemoteLoad] * tensor.BytesPerElement
}

// FLOPs returns the scalar arithmetic operations (MULT + ADD).
func (t *Trace) FLOPs() int64 {
	tot := t.Totals()
	return tot[OpMult] + tot[OpAdd]
}

// Validate checks every record.
func (t *Trace) Validate() error {
	for i, r := range t.Records {
		if err := r.Validate(); err != nil {
			return fmt.Errorf("trace: record %d: %w", i, err)
		}
	}
	return nil
}
