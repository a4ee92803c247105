// Package sim is the trace-driven performance simulator (Section 6.1 of
// the paper): it prices every layer's per-phase tensor access and
// computation on each accelerator group with package trace's work tables,
// builds the dependency graph of one training iteration (forward chain →
// backward chain → gradient computations, with partial-sum exchanges and
// inter-layer conversion transfers), and schedules it over the compute,
// HBM and network resources of the two accelerator groups of a
// bi-partition. A work table is the per-phase sum of the records of the
// trace package trace derives for the same assignment, bit for bit, so a
// simulation prices exactly that trace without materializing it; traces
// themselves are generated only for export (accpar-trace and its CSV).
//
// The simulator cross-validates the analytic hierarchical cost model in
// internal/core at the granularity the paper's cost tables are derived
// for — one split between two accelerator groups — and additionally models
// pipelining effects the analytic model ignores (e.g. gradient computation
// overlapping the backward sweep, communication/computation overlap when
// Config.OverlapComm is set).
//
// The simulator is a graph builder over internal/des: each machine has a
// compute lane and a NIC lane, and a transfer without Config.OverlapComm
// also holds its machine's compute lane. Back-to-back Simulate calls are
// allocation-lean by design: builders, with their task lists and
// schedules, are pooled and reused, and task names are derived lazily
// (only the optional timeline ever renders them).
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"accpar/internal/cost"
	"accpar/internal/des"
	"accpar/internal/dnn"
	"accpar/internal/faults"
	"accpar/internal/obs"
	"accpar/internal/optimizer"
	"accpar/internal/tensor"
	"accpar/internal/trace"
)

// Machine models one accelerator group of the split.
type Machine struct {
	// Name labels the group in reports.
	Name string
	// Compute is aggregate peak FLOPS.
	Compute float64
	// MemBW is aggregate HBM bandwidth, bytes/s.
	MemBW float64
	// NetBW is aggregate network bandwidth, bytes/s.
	NetBW float64
	// HBMBytes is aggregate memory capacity.
	HBMBytes int64
}

// Validate rejects non-positive and non-finite resources. NaN and ±Inf
// are rejected explicitly (a NaN rate passes a plain `<= 0` check and
// then every roofline division below propagates NaN into the makespan —
// exactly what a degenerate degraded spec would inject).
func (m Machine) Validate() error {
	for _, v := range [...]float64{m.Compute, m.MemBW, m.NetBW} {
		if !(v > 0) || math.IsInf(v, 0) {
			return fmt.Errorf("sim: machine %q has non-positive or non-finite resources", m.Name)
		}
	}
	return nil
}

// Config tunes the simulation.
type Config struct {
	// OverlapComm lets network transfers proceed concurrently with compute
	// on the same group (dedicated DMA engines). When false, a group
	// serializes its transfers with its computation, matching the analytic
	// model's assumption.
	OverlapComm bool
	// Optimizer selects the weight-update rule appended after each layer's
	// gradient phase. Default SGD.
	Optimizer optimizer.Kind
	// RecordTimeline captures per-task start/end times into
	// Result.Timeline (off by default: large models schedule thousands of
	// tasks, and rendering their names is the only reason the scheduler
	// ever materializes a task-name string).
	RecordTimeline bool
	// Faults injects a fault scenario into the run: deterministic rate
	// faults degrade the machines' resources before scheduling, transient
	// faults re-execute individual tasks with backoff, and group-loss
	// faults charge a checkpoint-restart penalty. nil (or an empty
	// scenario) simulates pristine hardware.
	Faults *faults.Scenario
}

// Validate rejects configurations the simulator cannot honour: unknown
// optimizer kinds (a stray int cast would silently panic deep inside the
// weight-update sizing) and invalid or out-of-range fault scenarios (the
// two-group simulator can only inject faults on groups 0 and 1).
func (cfg Config) Validate() error {
	known := false
	for _, k := range optimizer.Kinds {
		if cfg.Optimizer == k {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("sim: unknown optimizer kind %d", int(cfg.Optimizer))
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return err
		}
		if g := cfg.Faults.MaxGroup(); g > 1 {
			return fmt.Errorf("sim: fault targets group %d, but the bi-partition simulator has groups 0 and 1", g)
		}
	}
	return nil
}

// Split is the workload description: a network, the per-unit partition
// types and the ratio of the first machine.
type Split struct {
	Net   *dnn.Network
	Types []cost.Type
	Alpha float64
}

// Result is the outcome of one simulated training iteration.
type Result struct {
	// Time is the makespan in seconds.
	Time float64
	// ComputeBusy, NetBusy are per-machine resource busy times.
	ComputeBusy [2]float64
	NetBusy     [2]float64
	// ComputeUtil is ComputeBusy/Time per machine.
	ComputeUtil [2]float64
	// RemoteBytes is the total network traffic per machine.
	RemoteBytes [2]float64
	// FLOPs is the total arithmetic performed per machine.
	FLOPs [2]float64
	// PeakMemBytes approximates each machine's residency: kernels,
	// activations kept for backward, and error tensors for its shards.
	PeakMemBytes [2]int64
	// MemOK reports whether PeakMemBytes fits each machine's HBM.
	MemOK [2]bool
	// Tasks is the number of scheduled tasks.
	Tasks int
	// Retries counts transient-fault re-executions per machine.
	Retries [2]int
	// LostTime is the per-machine time wasted on fault handling: failed
	// attempts, backoff delays and checkpoint-restart penalties.
	LostTime [2]float64
	// RestartOverhead is the total group-loss checkpoint-restart penalty
	// added to the makespan (zero without GroupLoss faults).
	RestartOverhead float64
	// Timeline holds per-task timings when Config.RecordTimeline is set,
	// sorted by start time (ties broken by task name). The sort makes the
	// timeline deterministic output: schedule order is a builder-internal
	// detail, and consumers (CSV export, Gantt, Chrome traces, golden
	// tests) diff it byte-for-byte.
	Timeline []TaskTiming
}

// TaskTiming is one scheduled task's placement.
type TaskTiming struct {
	Name    string
	Machine int
	OnNet   bool
	Start   float64
	End     float64
}

// taskKind identifies the phase/role of a task. Task names are rendered
// on demand from (kind, unit, machine) — the scheduler itself never needs
// them, so the hot path carries two ints instead of an fmt.Sprintf string
// per task.
type taskKind uint8

const (
	taskFwd taskKind = iota
	taskPsumF
	taskXferF
	taskBwd
	taskPsumE
	taskXferE
	taskGrad
	taskPsumW
	taskUpdate
)

var taskKindName = [...]string{
	taskFwd: "fwd", taskPsumF: "psumF", taskXferF: "xferF",
	taskBwd: "bwd", taskPsumE: "psumE", taskXferE: "xferE",
	taskGrad: "grad", taskPsumW: "psumW", taskUpdate: "update",
}

// task is one scheduled item, in schedule order.
type task struct {
	kind taskKind
	// onNet selects the NIC lane instead of compute.
	onNet   bool
	machine int
	// unit is the network unit the task belongs to; unit2 is the consumer
	// unit of an error-tensor transfer (taskXferE), -1 otherwise.
	unit, unit2 int
	// flops and localBytes give a compute task's roofline duration:
	// max(flops/Compute, localBytes/MemBW).
	flops      float64
	localBytes float64
	// remoteBytes gives a transfer task's duration: remoteBytes/NetBW.
	remoteBytes float64
	// dur is the duration scheduled, fault retries and backoff included.
	dur float64
}

// taskName renders the task's human-readable name (timelines only — never
// the scheduling hot path).
func (b *builder) taskName(t *task) string {
	if t.kind == taskXferE {
		return fmt.Sprintf("xferE/%s-%s/m%d", b.units[t.unit].Name, b.units[t.unit2].Name, t.machine)
	}
	return fmt.Sprintf("%s/%s/m%d", taskKindName[t.kind], b.units[t.unit].Name, t.machine)
}

// Simulate runs one training iteration of the split on the two machines.
// When cfg.Faults is set, the scenario's deterministic rate faults are
// applied to the machines before scheduling (the caller passes pristine
// machines; passing pre-degraded machines would double-count), and
// transient and group-loss faults are injected during scheduling.
func Simulate(s Split, machines [2]Machine, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := validateSplit(s, machines); err != nil {
		return nil, err
	}

	var inj *faults.Injector
	if !cfg.Faults.Empty() {
		var err error
		inj, err = faults.NewInjector(*cfg.Faults)
		if err != nil {
			return nil, err
		}
		for m := range machines {
			d := cfg.Faults.GroupDivisors(m)
			machines[m].Compute /= d.Compute
			machines[m].MemBW /= d.MemBW
			machines[m].NetBW /= d.NetBW
			machines[m].HBMBytes = int64(float64(machines[m].HBMBytes) / d.Capacity)
			if err := machines[m].Validate(); err != nil {
				return nil, fmt.Errorf("sim: fault scenario degrades machine %d to an invalid state: %w", m, err)
			}
		}
	}

	b := getBuilder(s, machines)
	defer putBuilder(b)
	if err := b.build(cfg, inj); err != nil {
		return nil, err
	}
	return b.result(), nil
}

// validateSplit is the single validation gate shared by every entry path
// that constructs a builder (Simulate, and the task-name helper in the
// package's tests) — newBuilder itself must never be reachable with
// unchecked inputs.
func validateSplit(s Split, machines [2]Machine) error {
	if err := s.Net.Validate(); err != nil {
		return err
	}
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	if n := s.Net.NumUnits(); len(s.Types) != n {
		return fmt.Errorf("sim: %d types for %d units", len(s.Types), n)
	}
	if math.IsNaN(s.Alpha) || s.Alpha <= 0 || s.Alpha >= 1 {
		return fmt.Errorf("sim: alpha %g out of (0,1)", s.Alpha)
	}
	return nil
}

// The schedule's resources are lanes: machine m computes on lane m and
// transfers on lane nicLane+m.
const (
	nicLane = 2
	lanes   = 4
)

// builder assembles the task graph and schedules it as it goes.
type builder struct {
	split    Split
	machines [2]Machine
	cfg      Config
	inj      *faults.Injector
	res      *Result
	units    []dnn.WeightedLayer
	work     [2][]trace.Work // per machine, per unit
	edges    [][2]int
	incoming [][]int // consumer unit -> producer units
	outgoing [][]int // producer unit -> consumer units

	sched des.Graph
	tasks []task // indexed like sched's tasks
	deps  []int  // scratch dependency list
	// fwdDone[u][m] and bwdDone[u][m] are the last task of each phase for
	// unit u on machine m.
	fwdDone [][2]int
	bwdDone [][2]int
}

// builderPool recycles builders — and with them the task lists, schedule,
// work tables and adjacency indexes — across Simulate calls, so sweeps
// that simulate hundreds of configurations stop churning the GC.
var builderPool = sync.Pool{New: func() any { return new(builder) }}

func getBuilder(s Split, machines [2]Machine) *builder {
	b := builderPool.Get().(*builder)
	b.split = s
	b.machines = machines
	b.units = s.Net.AppendUnits(b.units[:0])
	return b
}

func putBuilder(b *builder) {
	// Drop references into the caller's network and run so the pool
	// retains only the reusable scratch capacity.
	b.split, b.cfg = Split{}, Config{}
	b.inj, b.res = nil, nil
	clear(b.units)
	b.units = b.units[:0]
	b.edges = nil
	builderPool.Put(b)
}

// newBuilder returns an unpooled builder (test helpers).
func newBuilder(s Split, machines [2]Machine) *builder {
	return &builder{split: s, machines: machines, units: s.Net.Units()}
}

// add prices t on its machine, draws its transient faults — each failed
// attempt re-executes the task in full after its backoff, occupying the
// resource throughout — and schedules it after deps. Tasks are added in
// schedule order, so the injector draws in that order.
func (b *builder) add(t task, deps ...int) int {
	m := &b.machines[t.machine]
	on, hold := t.machine, [2]int{}
	if t.onNet {
		t.dur = t.remoteBytes / m.NetBW
		on = nicLane + t.machine
		if !b.cfg.OverlapComm {
			// Serialize with compute: the transfer occupies both.
			hold = [2]int{t.machine, t.machine + 1}
		}
	} else {
		t.dur = math.Max(t.flops/m.Compute, t.localBytes/m.MemBW)
	}
	if b.inj != nil {
		if retries, backoff := b.inj.TaskFault(t.machine); retries > 0 {
			lost := float64(retries)*t.dur + backoff
			b.res.Retries[t.machine] += retries
			b.res.LostTime[t.machine] += lost
			t.dur += lost
		}
	}
	b.tasks = append(b.tasks, t)
	return b.sched.Add(des.Task{On: on, Hold: hold, Dur: t.dur}, deps...)
}

// convBytes returns the Table 5 conversion bytes machine m moves on the
// edge p→u: the feature map forward and the error backward.
func (b *builder) convBytes(p, u, m int) (fwd, bwd float64) {
	self, peer := b.split.Alpha, 1-b.split.Alpha
	if m == 1 {
		self, peer = peer, self
	}
	boundary := cost.EdgeBoundary(b.units[p].Dims, b.units[u].Dims)
	f, e := cost.InterCommSplit(b.split.Types[p], b.split.Types[u], boundary, self, peer)
	return f * tensor.BytesPerElement, e * tensor.BytesPerElement
}

// indexEdges (re)builds the adjacency indexes over reusable slices.
func (b *builder) indexEdges() {
	n := len(b.units)
	b.incoming = growAdjacency(b.incoming, n)
	b.outgoing = growAdjacency(b.outgoing, n)
	for _, e := range b.edges {
		b.incoming[e[1]] = append(b.incoming[e[1]], e[0])
		b.outgoing[e[0]] = append(b.outgoing[e[0]], e[1])
	}
}

// growAdjacency resizes an adjacency index to n empty rows, keeping row
// capacity.
func growAdjacency(adj [][]int, n int) [][]int {
	if cap(adj) < n {
		adj = make([][]int, n)
	}
	adj = adj[:n]
	for i := range adj {
		adj[i] = adj[i][:0]
	}
	return adj
}

// growDone resizes a phase-completion table to n slots.
func growDone(done [][2]int, n int) [][2]int {
	if cap(done) < n {
		return make([][2]int, n)
	}
	return done[:n]
}

// phase adds unit u's main tasks of one phase on both machines, priced
// from their work tables, each after the dependencies depsOf appends for
// its machine, then the partial-sum exchange of each machine whose trace
// reads the peer's partials — both partials must exist first. It returns each machine's
// last task of the phase.
func (b *builder) phase(ph cost.Phase, u int, main, psum taskKind, depsOf func(m int, deps []int) []int) [2]int {
	var last [2]int
	var rbs [2]float64
	for m := 0; m < 2; m++ {
		b.deps = depsOf(m, b.deps[:0])
		w := &b.work[m][u][ph]
		last[m] = b.add(task{kind: main, unit: u, unit2: -1, machine: m, flops: w.FLOPs, localBytes: w.LocalBytes}, b.deps...)
		rbs[m] = w.RemoteBytes
	}
	mains := last
	for m := 0; m < 2; m++ {
		if rbs[m] > 0 {
			last[m] = b.add(task{kind: psum, unit: u, unit2: -1, machine: m, onNet: true, remoteBytes: rbs[m]},
				mains[m], mains[1-m])
		}
	}
	return last
}

// build creates and schedules the full task graph of one iteration.
func (b *builder) build(cfg Config, inj *faults.Injector) error {
	n := len(b.units)
	b.cfg, b.inj = cfg, inj
	b.res = &Result{}
	b.tasks = b.tasks[:0]
	b.sched.Reset(lanes)
	b.edges = b.split.Net.Edges()
	b.indexEdges()

	// Price every unit's trace on both machines; a virtual unit does no
	// work.
	for m := 0; m < 2; m++ {
		b.work[m] = slices.Grow(b.work[m][:0], n)[:n]
	}
	for u := 0; u < n; u++ {
		if b.units[u].Virtual {
			b.work[0][u], b.work[1][u] = trace.Work{}, trace.Work{}
			continue
		}
		wi, wj, err := trace.WorkPair(b.units[u].Dims, b.split.Types[u], b.split.Alpha)
		if err != nil {
			return err
		}
		b.work[0][u], b.work[1][u] = wi, wj
	}

	b.fwdDone = growDone(b.fwdDone, n)
	b.bwdDone = growDone(b.bwdDone, n)

	// Forward sweep in topological (Units) order, with an inter-layer
	// conversion transfer on each incoming edge that needs one.
	for u := 0; u < n; u++ {
		b.fwdDone[u] = b.phase(cost.PhaseForward, u, taskFwd, taskPsumF, func(m int, deps []int) []int {
			for _, p := range b.incoming[u] {
				pre := [2]int{b.fwdDone[p][m], b.fwdDone[p][1-m]}
				deps = append(deps, pre[:]...)
				if fb, _ := b.convBytes(p, u, m); fb > 0 {
					deps = append(deps, b.add(task{
						kind: taskXferF, unit: u, unit2: -1, machine: m, onNet: true, remoteBytes: fb,
					}, pre[:]...))
				}
			}
			return deps
		})
	}

	// Backward sweep in reverse order, with an error conversion transfer
	// on each outgoing edge that needs one. A unit without consumers is
	// the loss boundary: its backward starts after its own forward.
	for u := n - 1; u >= 0; u-- {
		b.bwdDone[u] = b.phase(cost.PhaseBackward, u, taskBwd, taskPsumE, func(m int, deps []int) []int {
			if len(b.outgoing[u]) == 0 {
				deps = append(deps, b.fwdDone[u][m])
			}
			for _, c := range b.outgoing[u] {
				post := [2]int{b.bwdDone[c][m], b.bwdDone[c][1-m]}
				deps = append(deps, post[:]...)
				if _, eb := b.convBytes(u, c, m); eb > 0 {
					deps = append(deps, b.add(task{
						kind: taskXferE, unit: u, unit2: c, machine: m, onNet: true, remoteBytes: eb,
					}, post[:]...))
				}
			}
			return deps
		})
	}

	// Gradient computations: need the unit's input (forward of producers,
	// conservatively the unit's own forward completion) and its output
	// error (backward of this unit includes receipt of E_{l+1}), then the
	// Type-I ΔW partial-sum exchange.
	for u := 0; u < n; u++ {
		if b.units[u].Virtual {
			continue
		}
		done := b.phase(cost.PhaseGradient, u, taskGrad, taskPsumW, func(m int, deps []int) []int {
			return append(deps, b.fwdDone[u][m], b.bwdDone[u][m])
		})
		// Weight-update phase over each machine's kernel shard
		// (Section 2.1): replicated kernels (Type-I) update in full on
		// both machines; sharded kernels update their share only.
		for m := 0; m < 2; m++ {
			if w := b.weightShard(u, m); w > 0 {
				b.add(task{
					kind: taskUpdate, unit: u, unit2: -1, machine: m,
					flops:      float64(b.cfg.Optimizer.UpdateFLOPs(w)),
					localBytes: float64(b.cfg.Optimizer.UpdateMemBytes(w)),
				}, done[m])
			}
		}
	}
	return b.sched.Err()
}

// weightShard returns the number of kernel elements machine m holds for
// unit u under its partition type and share.
func (b *builder) weightShard(u, m int) int64 {
	l := b.units[u]
	if l.Virtual {
		return 0
	}
	d := l.Dims
	alpha := b.split.Alpha
	if m == 1 {
		alpha = 1 - alpha
	}
	g := int64(d.KH) * int64(d.KW)
	switch b.split.Types[u] {
	case cost.TypeI:
		return d.AW() // replicated
	case cost.TypeII:
		return int64(trace.SplitShare(d.Di, alpha)) * int64(d.Do) * g
	case cost.TypeIII:
		return int64(d.Di) * int64(trace.SplitShare(d.Do, alpha)) * g
	default:
		return 0
	}
}

// result reads the run off the schedule and the task list, in task order,
// and charges the group-loss checkpoint-restart penalties to the
// makespan.
func (b *builder) result() *Result {
	res := b.res
	res.Time = b.sched.Makespan()
	res.Tasks = len(b.tasks)
	if b.cfg.RecordTimeline {
		res.Timeline = make([]TaskTiming, 0, len(b.tasks))
	}
	for i, t := range b.tasks {
		if t.onNet {
			res.RemoteBytes[t.machine] += t.remoteBytes
		} else {
			res.FLOPs[t.machine] += t.flops
		}
		if b.cfg.RecordTimeline {
			end := b.sched.Finish(i)
			res.Timeline = append(res.Timeline, TaskTiming{
				Name: b.taskName(&t), Machine: t.machine, OnNet: t.onNet,
				Start: end - t.dur, End: end,
			})
		}
	}
	for m := 0; m < 2; m++ {
		res.ComputeBusy[m] = b.sched.Busy(m)
		res.NetBusy[m] = b.sched.Busy(nicLane + m)
	}

	if b.inj != nil {
		events := b.inj.LossPenalties(res.Time)
		for _, ev := range events {
			res.RestartOverhead += ev.Penalty
			if ev.Group >= 0 && ev.Group < 2 {
				res.LostTime[ev.Group] += ev.Penalty
			}
		}
		res.Time += res.RestartOverhead
		obsLossEvents.Add(int64(len(events)))
		if len(events) > 0 {
			obs.Log().Info("sim.loss_injected",
				"events", len(events), "restart_overhead_seconds", res.RestartOverhead)
		}
	}

	for m := 0; m < 2; m++ {
		if res.Time > 0 {
			res.ComputeUtil[m] = res.ComputeBusy[m] / res.Time
		}
		res.PeakMemBytes[m] = b.residency(m)
		res.MemOK[m] = res.PeakMemBytes[m] <= b.machines[m].HBMBytes
	}

	if b.cfg.RecordTimeline {
		slices.SortFunc(res.Timeline, func(a, b TaskTiming) int {
			if c := cmp.Compare(a.Start, b.Start); c != 0 {
				return c
			}
			return cmp.Compare(a.Name, b.Name)
		})
	}

	obsTasks.Add(int64(res.Tasks))
	obsRetries.Add(int64(res.Retries[0] + res.Retries[1]))
	if retries := res.Retries[0] + res.Retries[1]; retries > 0 {
		obs.Log().Info("sim.faults_injected",
			"retries", retries,
			"lost_seconds", res.LostTime[0]+res.LostTime[1])
	}
	for m := 0; m < 2; m++ {
		obsComputeBusy[m].Add(res.ComputeBusy[m])
		obsNetBusy[m].Add(res.NetBusy[m])
	}
	return res
}

// residency approximates peak memory: each unit's kernel shard plus the
// activations retained for the backward pass and one error tensor, under
// the unit's partition type and the machine's share.
func (b *builder) residency(m int) int64 {
	alpha := b.split.Alpha
	if m == 1 {
		alpha = 1 - alpha
	}
	var total int64
	for u, l := range b.units {
		if l.Virtual {
			continue
		}
		d := l.Dims
		var w, f int64
		switch b.split.Types[u] {
		case cost.TypeI:
			w = d.AW() // replicated kernel
			f = int64(alpha * float64(d.AF()+d.AFNext()))
		case cost.TypeII:
			w = int64(alpha * float64(d.AW()))
			f = int64(alpha*float64(d.AF())) + d.AFNext()
		case cost.TypeIII:
			w = int64(alpha * float64(d.AW()))
			f = d.AF() + int64(alpha*float64(d.AFNext()))
		}
		// Kernel + gradient + activation (retained) + error (transient),
		// plus persistent optimizer state over the kernel shard.
		total += (2*w+2*f)*tensor.BytesPerElement + b.cfg.Optimizer.StateBytes(w)
	}
	return total
}
