// Package spec is the one workload request that accpar, accpar-sim and
// accpar-serve accept. The CLIs bind their flags to its fields, with the
// flag defaults read from Default, and the service decodes its /v1 bodies
// into it under the same JSON names. So the defaults, the fleet bounds
// and the parse chain from strategy to search options live here once.
//
// # Two meanings of AccPar
//
// The strategy "accpar" names two different searches, depending on the
// front door:
//
//   - accpar and POST /v1/plan plan it as one configuration:
//     Strategy.Options() through accpar.PartitionWithOptions (see
//     Workload.Options).
//   - accpar -compare, POST /v1/compare, POST /v1/resilience, accpar-sim
//     and the evaluation figures run the portfolio behind
//     accpar.Partition: the full configuration and eight restricted
//     variants (two type sets, the communication-only objective, equal
//     ratios, linearized graphs, HyPar, OWT and DP), keeping the fastest
//     plan.
//
// The portfolio is never slower and is sometimes faster. For example,
// `accpar -model inception -batch 64` plans an iteration time of
// 0.00253556 s, while the AccPar row of `accpar -model inception -batch
// 64 -compare` reads 0.00247574 s. The other three strategies are one
// configuration at every front door.
package spec

import (
	"errors"

	"accpar"
)

// Workload is one planning request: a built-in model at a batch size, a
// fleet and the search configuration. The JSON names are the /v1 field
// names.
type Workload struct {
	// Model is a built-in model name (accpar.Models).
	Model string `json:"model"`
	// Batch is the mini-batch size.
	Batch int `json:"batch"`
	// V2 and V3 size the default TPU-v2 + TPU-v3 fleet.
	V2 int `json:"v2"`
	V3 int `json:"v3"`
	// Fleet is an explicit "name:count,name:count" preset spec that
	// overrides V2/V3 (accpar.ParseFleet).
	Fleet string `json:"fleet"`
	// Strategy selects the partitioning scheme: dp, owt, hypar, accpar.
	Strategy string `json:"strategy"`
	// Levels is the hierarchy level budget.
	Levels int `json:"levels"`
	// Optimizer is the weight-update rule: sgd, momentum, adam.
	Optimizer string `json:"optimizer"`
	// Inference costs the forward phase only.
	Inference bool `json:"inference"`
	// MemoryLimit is the HBM-capacity constraint mode: off, reject or
	// penalize. The empty string is off.
	MemoryLimit string `json:"memory_limit"`
}

// Sim is what a fault experiment adds to a Workload.
type Sim struct {
	// Faults is the fault spec, e.g. "slowdown:0=2.0,transient:1=0.05@0.001".
	Faults string `json:"faults"`
	// Seed makes the injection stream deterministic.
	Seed int64 `json:"seed"`
	// Ckpt is the checkpoint-restart overhead in seconds charged on group
	// loss.
	Ckpt float64 `json:"ckpt"`
	// Overlap allows communication/computation overlap in the simulation.
	Overlap bool `json:"overlap"`
}

// Request is a workload with its fault-experiment fields.
type Request struct {
	Workload
	Sim
}

// defaults is the paper's evaluation point (Section 6.1): AlexNet at
// batch 512 on 128 TPU-v2 + 128 TPU-v3 boards, planned by AccPar down to
// single boards with SGD. Fault experiments default to seed 1.
var defaults = Request{
	Workload: Workload{Model: "alexnet", Batch: 512, V2: 128, V3: 128,
		Strategy: "accpar", Levels: 64, Optimizer: "sgd", MemoryLimit: "off"},
	Sim: Sim{Seed: 1},
}

// Default returns the default request; the CLIs' flag defaults are its
// fields.
func Default() Request { return defaults }

// FillZero gives every zero field its default, so a decoded body that
// leaves a field out plans what the CLI plans without its flag. V2 and V3
// take theirs together, and only when both are zero and Fleet is empty.
func (w *Workload) FillZero() {
	d := defaults.Workload
	if w.Model == "" {
		w.Model = d.Model
	}
	if w.Batch == 0 {
		w.Batch = d.Batch
	}
	if w.V2 == 0 && w.V3 == 0 && w.Fleet == "" {
		w.V2, w.V3 = d.V2, d.V3
	}
	if w.Strategy == "" {
		w.Strategy = d.Strategy
	}
	if w.Levels == 0 {
		w.Levels = d.Levels
	}
	if w.Optimizer == "" {
		w.Optimizer = d.Optimizer
	}
	if w.MemoryLimit == "" {
		w.MemoryLimit = d.MemoryLimit
	}
}

// FillZero gives every zero field its default, as Workload.FillZero
// does, and a zero seed its default.
func (r *Request) FillZero() {
	r.Workload.FillZero()
	if r.Seed == 0 {
		r.Seed = defaults.Seed
	}
}

// Network builds the model at the batch size.
func (w *Workload) Network() (*accpar.Network, error) {
	return accpar.BuildModel(w.Model, w.Batch)
}

// Array builds the fleet: Fleet when it is set, else V2 TPU-v2 and V3
// TPU-v3 boards. Both builders reject negative counts and fleets over
// accpar.MaxAccelerators before building anything.
func (w *Workload) Array() (*accpar.Array, error) {
	if w.Fleet != "" {
		return accpar.ParseFleet(w.Fleet)
	}
	return accpar.TPUFleet(w.V2, w.V3)
}

// Build builds the network, then the array.
func (w *Workload) Build() (*accpar.Network, *accpar.Array, error) {
	net, err := w.Network()
	if err != nil {
		return nil, nil, err
	}
	arr, err := w.Array()
	if err != nil {
		return nil, nil, err
	}
	return net, arr, nil
}

// Options resolves the search configuration: the strategy's one
// configuration (see "Two meanings of AccPar" above), then the
// optimizer, the mode and the memory limit.
func (w *Workload) Options() (accpar.Strategy, accpar.Options, error) {
	st, err := accpar.ParseStrategy(w.Strategy)
	if err != nil {
		return 0, accpar.Options{}, err
	}
	opt := st.Options()
	if opt.Optimizer, err = accpar.ParseOptimizer(w.Optimizer); err != nil {
		return 0, accpar.Options{}, err
	}
	if w.Inference {
		opt.Mode = accpar.ModeInference
	}
	if opt.MemoryLimit, err = accpar.ParseMemoryMode(w.MemoryLimit); err != nil {
		return 0, accpar.Options{}, err
	}
	return st, opt, nil
}

// Experiment resolves a fault experiment, in order: the two groups it
// runs on, V2 TPU-v2 and V3 TPU-v3 boards held to the bounds
// accpar.TPUFleet checks; the network; the strategy, which searches as
// the portfolio (see "Two meanings of AccPar" above); and the scenario,
// nil when Faults is empty. A Fleet cannot name the simulator's two
// groups, so it is an error.
func (r *Request) Experiment() (net *accpar.Network, groups []accpar.ArrayGroup, st accpar.Strategy, sc *accpar.FaultScenario, err error) {
	if r.Fleet != "" {
		return nil, nil, 0, nil, errors.New("resilience runs on the two-group v2/v3 array; fleet is not supported")
	}
	if _, err = accpar.TPUFleet(r.V2, r.V3); err != nil {
		return
	}
	groups = []accpar.ArrayGroup{{Spec: accpar.TPUv2(), Count: r.V2}, {Spec: accpar.TPUv3(), Count: r.V3}}
	if net, err = r.Network(); err != nil {
		return
	}
	if st, err = accpar.ParseStrategy(r.Strategy); err != nil || r.Faults == "" {
		return
	}
	fl, err := accpar.ParseFaults(r.Faults)
	if err != nil {
		return
	}
	return net, groups, st, &accpar.FaultScenario{Seed: r.Seed, Faults: fl, CheckpointOverhead: r.Ckpt}, nil
}
