// Package accpar is a Go implementation of AccPar (Song et al., HPCA
// 2020): principled tensor partitioning of DNN training across arrays of
// heterogeneous deep-learning accelerators.
//
// AccPar decides, for every weighted layer of a DNN and every level of an
// accelerator-array hierarchy, which of the three basic tensor partition
// types to use — Type-I (batch), Type-II (input channels), Type-III
// (output channels) — and what fraction of the work each accelerator group
// receives, minimizing a joint computation + communication cost model.
//
// Quick start:
//
//	net, _ := accpar.BuildModel("alexnet", 512)
//	arr, _ := accpar.HeterogeneousArray(
//	    accpar.ArrayGroup{Spec: accpar.TPUv2(), Count: 128},
//	    accpar.ArrayGroup{Spec: accpar.TPUv3(), Count: 128})
//	plan, _ := accpar.Partition(net, arr, accpar.StrategyAccPar)
//	fmt.Printf("iteration time: %.3gs\n", plan.Time())
//	fmt.Println(plan.TypeMap())
//
// The package re-exports the building blocks needed to construct custom
// models (see NewGraph) and custom accelerator specifications, and exposes
// the baseline strategies the paper compares against (data parallelism,
// "one weird trick", HyPar).
package accpar

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"accpar/internal/arraysim"
	"accpar/internal/autotune"
	"accpar/internal/core"
	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/optimizer"
	"accpar/internal/sim"
	"accpar/internal/tensor"
)

// Re-exported model-construction types. Build custom DNNs with NewGraph,
// Graph.Add and the layer constructors, then convert with ExtractNetwork.
type (
	// Graph is a DAG of DNN layers with shape inference.
	Graph = dnn.Graph
	// Layer is one operator instance.
	Layer = dnn.Layer
	// ConvOp parameterizes a 2D convolution.
	ConvOp = dnn.ConvOp
	// FCOp parameterizes a fully-connected layer.
	FCOp = dnn.FCOp
	// PoolOp parameterizes max/average pooling.
	PoolOp = dnn.PoolOp
	// AddOp is the residual two-input addition.
	AddOp = dnn.AddOp
	// Network is the extracted series-parallel weighted-layer structure the
	// partitioner consumes.
	Network = dnn.Network
	// Shape is a tensor shape.
	Shape = tensor.Shape
	// Spec describes one accelerator board.
	Spec = hardware.Spec
	// Array is an ordered accelerator collection.
	Array = hardware.Array
	// ArrayGroup pairs a Spec with a count for heterogeneous arrays.
	ArrayGroup = hardware.GroupSpec
	// Plan is a complete hierarchical partitioning decision.
	Plan = core.Plan
	// PlanNode is one hierarchy node's decision. Nodes are read-only:
	// plans share solved subtrees with each other and between a split's
	// two children, at any depth. A node stores neither its depth nor its
	// effective dims; walk from the root to know them (Plan.Levels()[i]
	// is level i+1).
	PlanNode = core.PlanNode
	// Options is the advanced partitioner configuration.
	Options = core.Options
	// PartitionType is one of the three basic tensor partition types.
	PartitionType = cost.Type
	// SimMachine models one accelerator group in the trace-driven
	// simulator.
	SimMachine = sim.Machine
	// SimResult is the simulator outcome.
	SimResult = sim.Result
	// SimConfig tunes the simulator.
	SimConfig = sim.Config
	// MemoryReport summarizes a plan's HBM feasibility.
	MemoryReport = core.MemoryReport
	// MemoryMode selects how the search treats per-leaf HBM capacity
	// (Options.MemoryLimit).
	MemoryMode = core.MemoryMode
	// NoFeasiblePlanError is the typed infeasibility diagnostic a
	// MemoryReject search returns when nothing fits, carrying the
	// tightest leaf.
	NoFeasiblePlanError = core.NoFeasiblePlanError
	// PlanJSON is the serialized wire form of a plan.
	PlanJSON = core.PlanJSON
	// Optimizer selects the weight-update rule (SGD, Momentum, Adam).
	Optimizer = optimizer.Kind
)

// The supported weight-update rules (Section 2.1 of the paper).
const (
	// OptimizerSGD is plain mini-batch gradient descent.
	OptimizerSGD = optimizer.SGD
	// OptimizerMomentum keeps a velocity tensor per weight.
	OptimizerMomentum = optimizer.Momentum
	// OptimizerAdam keeps two moment tensors per weight.
	OptimizerAdam = optimizer.Adam
)

// Memory-constraint modes (Options.MemoryLimit).
const (
	// MemoryOff ignores HBM capacity during the search (default);
	// Plan.Memory still reports overflow post-hoc.
	MemoryOff = core.MemoryOff
	// MemoryReject requires the returned plan to fit every leaf's HBM;
	// infeasible searches return a *NoFeasiblePlanError.
	MemoryReject = core.MemoryReject
	// MemoryPenalize prefers fitting plans but returns the best effort
	// when nothing fits.
	MemoryPenalize = core.MemoryPenalize
)

// Workload modes (Options.Mode).
const (
	// ModeTraining costs forward + backward + gradient — the paper's
	// problem and the default.
	ModeTraining = core.ModeTraining
	// ModeInference costs the forward phase only (Section 1: inference
	// performs only data forward).
	ModeInference = core.ModeInference
)

// Cancellation sentinels of the context-bound entry points (PartitionCtx
// and friends), re-exported from the planning core. Both wrap the
// corresponding context sentinel, so errors.Is matches either.
var (
	// ErrCanceled reports a search aborted by context cancellation.
	ErrCanceled = core.ErrCanceled
	// ErrDeadlineExceeded reports a search aborted by a context deadline.
	ErrDeadlineExceeded = core.ErrDeadlineExceeded
	// ErrNoFeasiblePlan is the sentinel every *NoFeasiblePlanError
	// matches via errors.Is: a MemoryReject search found no plan that
	// fits the accelerators' HBM capacities.
	ErrNoFeasiblePlan = core.ErrNoFeasiblePlan
)

// ParseOptimizer converts "sgd", "momentum" or "adam" to an Optimizer.
func ParseOptimizer(name string) (Optimizer, error) { return optimizer.Parse(name) }

// ParseMemoryMode converts "off", "reject" or "penalize" to a MemoryMode;
// the empty string selects MemoryOff.
func ParseMemoryMode(name string) (MemoryMode, error) {
	switch name {
	case "", "off":
		return MemoryOff, nil
	case "reject":
		return MemoryReject, nil
	case "penalize":
		return MemoryPenalize, nil
	default:
		return 0, fmt.Errorf("accpar: unknown memory mode %q (want off, reject or penalize)", name)
	}
}

// ReadPlanJSON decodes a plan previously written with Plan.WriteJSON.
func ReadPlanJSON(r io.Reader) (*PlanJSON, error) { return core.ReadPlanJSON(r) }

// The three basic tensor partition types (Section 3 of the paper).
const (
	// TypeI partitions the batch dimension (data parallelism).
	TypeI = cost.TypeI
	// TypeII partitions the input-channel dimension (model parallelism).
	TypeII = cost.TypeII
	// TypeIII partitions the output-channel dimension — the configuration
	// prior approaches overlook.
	TypeIII = cost.TypeIII
)

// NewGraph returns an empty model graph; see Graph.Add, Graph.Input and the
// layer helpers (ReLU, Flatten, ...).
func NewGraph(name string) *Graph { return dnn.NewGraph(name) }

// Layer helper constructors, re-exported from the model substrate.
var (
	// ReLU returns a rectified-linear activation layer.
	ReLU = dnn.ReLU
	// BatchNorm returns a batch-normalization layer.
	BatchNorm = dnn.BatchNorm
	// Dropout returns a dropout layer.
	Dropout = dnn.Dropout
	// Softmax returns a softmax layer.
	Softmax = dnn.Softmax
	// Flatten returns a flatten layer.
	Flatten = dnn.Flatten
	// NewShape constructs a tensor shape.
	NewShape = tensor.NewShape
)

// ExtractNetwork reduces an inferred Graph to the series-parallel Network
// the partitioner operates on.
func ExtractNetwork(g *Graph) (*Network, error) { return dnn.ExtractNetwork(g) }

// Models returns the names of the nine built-in evaluation DNNs.
func Models() []string { return models.EvaluationOrder() }

// BuildModel returns the extracted network of a built-in model at the
// given mini-batch size: one of the nine evaluation DNNs ("lenet",
// "alexnet", "vgg11", "vgg13", "vgg16", "vgg19", "resnet18", "resnet34",
// "resnet50") or one of the two extension models ("inception", "mlp").
// Each call returns a fresh network, cloned from a per-model template
// and stamped with the batch, which the caller may change freely.
func BuildModel(name string, batch int) (*Network, error) {
	return models.BuildNetwork(name, batch)
}

// TPUv2 returns the TPU-v2 board specification (Table 7 of the paper).
func TPUv2() Spec { return hardware.TPUv2() }

// TPUv3 returns the TPU-v3 board specification (Table 7 of the paper).
func TPUv3() Spec { return hardware.TPUv3() }

// HomogeneousArray returns an array of n identical accelerators.
func HomogeneousArray(spec Spec, n int) (*Array, error) {
	return hardware.NewHomogeneous(spec, n)
}

// HeterogeneousArray returns an array mixing accelerator groups; the
// paper's evaluation array is HeterogeneousArray({TPUv2, 128},
// {TPUv3, 128}).
func HeterogeneousArray(groups ...ArrayGroup) (*Array, error) {
	return hardware.NewHeterogeneous(groups...)
}

// MaxAccelerators bounds the fleets ParseFleet and the planning service
// accept, in accelerators in total. It is checked before any array is
// built, so an oversized request costs a parse, not an allocation.
const MaxAccelerators = 1 << 16

// ParseFleet builds an array from a "name:count,name:count" description
// using the built-in accelerator presets (tpu-v2, tpu-v3, gpu-class-a,
// gpu-class-b, edge-npu). This is the parser behind the CLI and serve
// -fleet/"fleet" specs. Fleets over MaxAccelerators are rejected.
func ParseFleet(desc string) (*Array, error) {
	presets := hardware.Presets()
	var groups []ArrayGroup
	total := 0
	for _, part := range strings.Split(desc, ",") {
		part = strings.TrimSpace(part)
		name, countStr, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("fleet entry %q: want name:count", part)
		}
		spec, ok := presets[name]
		if !ok {
			return nil, fmt.Errorf("unknown accelerator preset %q", name)
		}
		count, err := strconv.Atoi(countStr)
		if err != nil || count < 1 {
			return nil, fmt.Errorf("fleet entry %q: bad count", part)
		}
		if count > MaxAccelerators-total {
			return nil, fmt.Errorf("fleet %q: more than %d accelerators", desc, MaxAccelerators)
		}
		total += count
		groups = append(groups, ArrayGroup{Spec: spec, Count: count})
	}
	return HeterogeneousArray(groups...)
}

// TPUFleet builds the v2×TPU-v2 + v3×TPU-v3 array that the CLI's
// -v2/-v3 flags and the planning service's v2/v3 fields describe; a zero
// count drops its group. Negative counts, an empty fleet and fleets over
// MaxAccelerators are rejected before any array is built.
func TPUFleet(v2, v3 int) (*Array, error) {
	switch {
	case v2 < 0 || v3 < 0:
		return nil, fmt.Errorf("fleet v2=%d v3=%d: negative accelerator count", v2, v3)
	case v2 > MaxAccelerators || v3 > MaxAccelerators-v2:
		return nil, fmt.Errorf("fleet v2=%d v3=%d: more than %d accelerators", v2, v3, MaxAccelerators)
	case v2 > 0 && v3 > 0:
		return HeterogeneousArray(ArrayGroup{Spec: TPUv2(), Count: v2}, ArrayGroup{Spec: TPUv3(), Count: v3})
	case v2 > 0:
		return HomogeneousArray(TPUv2(), v2)
	case v3 > 0:
		return HomogeneousArray(TPUv3(), v3)
	default:
		return nil, fmt.Errorf("fleet needs at least one accelerator (v2/v3)")
	}
}

// Strategy selects a parallelization scheme.
type Strategy = core.Strategy

// The four compared strategies.
const (
	// StrategyDP is the data-parallelism baseline: every layer Type-I,
	// equal ratios.
	StrategyDP = core.StrategyDP
	// StrategyOWT is "one weird trick": CONV layers data-parallel, FC
	// layers model-parallel.
	StrategyOWT = core.StrategyOWT
	// StrategyHyPar is the HyPar baseline: two types, communication-only
	// objective, equal ratios, linearized graphs.
	StrategyHyPar = core.StrategyHyPar
	// StrategyAccPar is the full AccPar method: complete type space, joint
	// cost model, flexible ratios, native multi-path search.
	StrategyAccPar = core.StrategyAccPar
)

// Strategies lists all strategies in ascending flexibility order
// (Table 8 of the paper: DP ≺ OWT ≺ HyPar ≺ AccPar).
var Strategies = core.Strategies

// ParseStrategy converts a case-insensitive strategy name ("dp", "owt",
// "hypar", "accpar") to a Strategy — the parser behind the CLI and serve
// -strategy/"strategy" inputs.
func ParseStrategy(name string) (Strategy, error) { return core.ParseStrategy(name) }

// Partition produces the hierarchical partitioning plan of the network on
// the array under the strategy, splitting the array down to single
// accelerators. StrategyAccPar runs the production portfolio search: the
// full complete-space configuration plus the restricted variants it
// subsumes, decided by the joint cost model — guaranteeing the result never
// loses to any baseline (the hierarchical search is greedy per level, so a
// single pass lacks that guarantee).
func Partition(net *Network, arr *Array, strategy Strategy) (*Plan, error) {
	return PartitionCtx(context.Background(), net, arr, strategy)
}

// PartitionCtx is Partition bound to a context: the search polls ctx and
// aborts with ErrCanceled or ErrDeadlineExceeded instead of running to
// completion. For a live context the plan is byte-identical to
// Partition's.
func PartitionCtx(ctx context.Context, net *Network, arr *Array, strategy Strategy) (*Plan, error) {
	return partitionCtx(ctx, net, arr, 64, nil, nil, strategy.Variants()...)
}

// PartitionWithOptions is the advanced entry point: explicit partitioner
// options and a hierarchy-level budget (unsplit leaf groups fall back to
// internal data parallelism).
func PartitionWithOptions(net *Network, arr *Array, opt Options, maxLevels int) (*Plan, error) {
	return PartitionWithOptionsCtx(context.Background(), net, arr, opt, maxLevels)
}

// PartitionWithOptionsCtx is PartitionWithOptions bound to a context;
// see PartitionCtx for the abort semantics.
func PartitionWithOptionsCtx(ctx context.Context, net *Network, arr *Array, opt Options, maxLevels int) (*Plan, error) {
	return partitionCtx(ctx, net, arr, maxLevels, opt.Cache, nil, opt)
}

// partitionCtx is the facade's one path from an array to a plan, behind
// the package-level and Session Partition* calls and both searches of
// the resilience pipeline. It builds the array's hierarchy down to
// maxLevels levels and searches it with searchTree.
func partitionCtx(ctx context.Context, net *Network, arr *Array, maxLevels int, cache *PlanCache, stats *ReplanStats, opts ...Options) (*Plan, error) {
	tree, err := hardware.BuildTree(arr, maxLevels)
	if err != nil {
		return nil, err
	}
	return searchTree(ctx, net, tree, cache, stats, opts)
}

// searchTree runs the portfolio search over opts (one option set, or a
// strategy's variants) on a built tree, every variant searching on cache
// (nil: a private memo). A non-nil stats accumulates what the search
// served and solved.
func searchTree(ctx context.Context, net *Network, tree *hardware.Tree, cache *PlanCache, stats *ReplanStats, opts []Options) (*Plan, error) {
	for i := range opts {
		opts[i].Cache = cache
	}
	if stats == nil {
		return core.PartitionCtx(ctx, net, tree, opts...)
	}
	plan, st, err := core.PartitionStatsCtx(ctx, net, tree, opts...)
	stats.Add(st)
	return plan, err
}

// Comparison is the outcome of comparing all strategies on one workload.
type Comparison struct {
	// Plans holds the plan of each strategy.
	Plans map[Strategy]*Plan
}

// Compare partitions the network with all four strategies in one AccPar
// portfolio run on a fresh Session: the portfolio searches the three
// baselines as variants, so their plans come from that run. The
// resulting plans are identical to four Partition calls.
func Compare(net *Network, arr *Array) (*Comparison, error) {
	return NewSession(0).Compare(net, arr)
}

// Speedup returns the strategy's throughput normalized to data parallelism,
// the paper's baseline.
func (c *Comparison) Speedup(s Strategy) float64 {
	return c.Plans[StrategyDP].Time() / c.Plans[s].Time()
}

// Simulate runs the trace-driven discrete-event simulator for a two-group
// split of the network: per-layer tensor access and MULT/ADD traces are
// derived at the paper's granularity and scheduled over each group's
// compute, HBM and network resources. types must assign one partition type
// per network unit (see Network.Units); alpha is machine A's share.
func Simulate(net *Network, types []PartitionType, alpha float64, a, b SimMachine, cfg SimConfig) (*SimResult, error) {
	return sim.Simulate(sim.Split{Net: net, Types: types, Alpha: alpha}, [2]sim.Machine{a, b}, cfg)
}

// MachineFor converts an accelerator spec into a simulator machine.
func MachineFor(spec Spec) SimMachine {
	return sim.Machine{Name: spec.Name, Compute: spec.FLOPS, MemBW: spec.MemBandwidth, NetBW: spec.NetBandwidth, HBMBytes: spec.HBMBytes}
}

// TuneBatch sweeps power-of-two batch sizes in [minBatch, maxBatch] for a
// built-in model on the array, partitions each with AccPar, and returns
// the highest-throughput batch whose plan fits every accelerator's HBM.
func TuneBatch(model string, arr *Array, minBatch, maxBatch int) (*autotune.BatchResult, error) {
	// A zero Session searches without a cache.
	return (&Session{}).TuneBatch(model, arr, minBatch, maxBatch)
}

// TuneDepth sweeps hierarchy-level budgets on the array and returns the
// budget with the highest AccPar throughput for the network.
func TuneDepth(net *Network, arr *Array) (*autotune.DepthResult, error) {
	return autotune.TuneDepth(net, arr, nil)
}

// SimulateArray runs the array-level event-driven simulation of a full
// hierarchical plan: every leaf accelerator group becomes a machine, every
// hierarchy split a link, and one training iteration is scheduled over all
// of them. The plan must come from Partition/PartitionWithOptions on the
// same array.
func SimulateArray(plan *Plan, arr *Array, cfg ArraySimConfig) (*ArraySimResult, error) {
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		return nil, err
	}
	return arraysim.Simulate(plan, tree, cfg)
}

// ArraySimConfig tunes the array-level simulation.
type ArraySimConfig = arraysim.Config

// ArraySimResult is the array-level simulation outcome.
type ArraySimResult = arraysim.Result

// GroupMachine aggregates n accelerators of one spec into a single
// simulator machine.
func GroupMachine(spec Spec, n int) SimMachine {
	return sim.Machine{
		Name:     fmt.Sprintf("%d×%s", n, spec.Name),
		Compute:  spec.FLOPS * float64(n),
		MemBW:    spec.MemBandwidth * float64(n),
		NetBW:    spec.NetBandwidth * float64(n),
		HBMBytes: spec.HBMBytes * int64(n),
	}
}
