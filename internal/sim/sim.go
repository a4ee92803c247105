// Package sim is the trace-driven performance simulator (Section 6.1 of
// the paper): it derives per-layer, per-phase tensor access and computation
// traces with package trace, builds the dependency graph of one training
// iteration (forward chain → backward chain → gradient computations, with
// partial-sum exchanges and inter-layer conversion transfers), and
// schedules it over the compute, HBM and network resources of the two
// accelerator groups of a bi-partition.
//
// The simulator cross-validates the analytic hierarchical cost model in
// internal/core at the granularity the paper's cost tables are derived
// for — one split between two accelerator groups — and additionally models
// pipelining effects the analytic model ignores (e.g. gradient computation
// overlapping the backward sweep, communication/computation overlap when
// Config.OverlapComm is set).
//
// Back-to-back Simulate calls are allocation-lean by design: builders and
// their task arenas are pooled and reused, task names are derived lazily
// (only error paths and the optional timeline ever render them), and
// dependency lists are carved from a per-builder arena instead of
// individually heap-allocated.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"accpar/internal/cost"
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
	// timeline deterministic output: schedule order is an arena-internal
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

// task is one schedulable item.
type task struct {
	kind    taskKind
	machine int
	// onNet selects the NIC resource instead of compute.
	onNet bool
	// scheduled marks completion of list scheduling.
	scheduled bool
	// unit is the network unit the task belongs to; unit2 is the consumer
	// unit of an error-tensor transfer (taskXferE), -1 otherwise.
	unit, unit2 int
	// flops and localBytes give a compute task's roofline duration:
	// max(flops/Compute, localBytes/MemBW).
	flops      float64
	localBytes float64
	// remoteBytes gives a transfer task's duration: remoteBytes/NetBW.
	remoteBytes float64
	deps        []*task
	done        float64
}

// taskName renders the task's human-readable name (reports, errors and
// timelines only — never the scheduling hot path).
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
	b.optimizer = cfg.Optimizer
	if err := b.build(); err != nil {
		return nil, err
	}
	return b.schedule(cfg, inj)
}

// validateSplit is the single validation gate shared by every entry path
// that constructs a builder (Simulate, and the task-order helpers in the
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

// taskArena hands out tasks from chunked slabs so each Simulate run costs
// a handful of slab allocations instead of one per task, and a pooled
// builder's slabs are reused wholesale by the next run. Chunking (rather
// than one growing slice) keeps task pointers stable across allocations.
type taskArena struct {
	chunks [][]task
	used   int // tasks used in the last chunk
	total  int // tasks handed out since reset
}

// grow ensures capacity for at least n more tasks without a new chunk.
func (a *taskArena) grow(n int) {
	if n <= 0 {
		return
	}
	if len(a.chunks) > 0 {
		last := a.chunks[len(a.chunks)-1]
		if len(last)-a.used >= n {
			return
		}
	}
	a.chunks = append(a.chunks, make([]task, n))
	a.used = 0
}

func (a *taskArena) alloc() *task {
	if len(a.chunks) == 0 || a.used == len(a.chunks[len(a.chunks)-1]) {
		size := 256
		if k := len(a.chunks); k > 0 && len(a.chunks[k-1]) > size/2 {
			size = 2 * len(a.chunks[k-1])
		}
		a.chunks = append(a.chunks, make([]task, size))
		a.used = 0
	}
	t := &a.chunks[len(a.chunks)-1][a.used]
	a.used++
	a.total++
	*t = task{}
	return t
}

// reset consolidates the arena into one slab big enough for everything
// the previous run allocated, so steady-state reuse never chunks at all.
func (a *taskArena) reset() {
	if len(a.chunks) > 1 {
		a.chunks = [][]task{make([]task, a.total)}
	}
	a.used = 0
	a.total = 0
}

// depsArena carves dependency lists out of chunked pointer slabs. Callers
// take a fixed-capacity slice (the worst-case dependency count is always
// known up front), append into it, and may hand back compacted leftovers.
type depsArena struct {
	chunks [][]*task
	used   int
	total  int
}

// take returns a zero-length slice with capacity n, capped so appends
// beyond n can never bleed into a neighbouring list.
func (a *depsArena) take(n int) []*task {
	if n == 0 {
		return nil
	}
	if len(a.chunks) == 0 || len(a.chunks[len(a.chunks)-1])-a.used < n {
		size := 1024
		if n > size {
			size = n
		}
		a.chunks = append(a.chunks, make([]*task, size))
		a.used = 0
	}
	c := a.chunks[len(a.chunks)-1]
	s := c[a.used : a.used : a.used+n]
	a.used += n
	a.total += n
	return s
}

func (a *depsArena) reset() {
	if len(a.chunks) > 1 {
		a.chunks = [][]*task{make([]*task, a.total)}
	} else if len(a.chunks) == 1 {
		clear(a.chunks[0])
	}
	a.used = 0
	a.total = 0
}

// builder assembles the task graph.
type builder struct {
	split     Split
	machines  [2]Machine
	optimizer optimizer.Kind
	units     []dnn.WeightedLayer
	traces    [2][]*trace.Trace // per machine, per unit
	edges     [][2]int
	incoming  [][]int // consumer unit -> producer units
	outgoing  [][]int // producer unit -> consumer units

	arena taskArena
	deps  depsArena
	tasks []*task
	// fwdDone[m][u], bwdDone[m][u], gradDone[m][u] are the last task of
	// each phase for unit u on machine m.
	fwdDone  [2][]*task
	bwdDone  [2][]*task
	gradDone [2][]*task
}

// builderPool recycles builders — and with them the task and dependency
// arenas, trace tables and adjacency indexes — across Simulate calls, so
// sweeps that simulate hundreds of configurations stop churning the GC.
var builderPool = sync.Pool{New: func() any { return new(builder) }}

func getBuilder(s Split, machines [2]Machine) *builder {
	b := builderPool.Get().(*builder)
	b.split = s
	b.machines = machines
	b.optimizer = 0
	b.units = s.Net.AppendUnits(b.units[:0])
	b.tasks = b.tasks[:0]
	b.arena.reset()
	b.deps.reset()
	return b
}

func putBuilder(b *builder) {
	// Drop references into the caller's network so the pool retains only
	// the reusable scratch capacity.
	b.split = Split{}
	clear(b.units)
	b.units = b.units[:0]
	b.edges = nil
	builderPool.Put(b)
}

// newBuilder returns an unpooled builder (test helpers).
func newBuilder(s Split, machines [2]Machine) *builder {
	return &builder{split: s, machines: machines, units: s.Net.Units()}
}

// newTask allocates a task from the arena and appends it to the schedule
// order.
func (b *builder) newTask(t task) *task {
	p := b.arena.alloc()
	*p = t
	b.tasks = append(b.tasks, p)
	return p
}

// phaseWork sums a trace phase's arithmetic and local traffic.
func phaseWork(tr *trace.Trace, p cost.Phase) (flops, localBytes, remoteBytes float64) {
	for _, r := range tr.Records {
		if r.Phase != p {
			continue
		}
		switch r.Op {
		case trace.OpMult, trace.OpAdd:
			flops += float64(r.Elements())
		case trace.OpLoad, trace.OpStore:
			localBytes += float64(r.Elements()) * tensor.BytesPerElement
		case trace.OpRemoteLoad:
			remoteBytes += float64(r.Elements()) * tensor.BytesPerElement
		}
	}
	return
}

// interBytes splits the Table 5 inter-layer conversion cost of an edge into
// its forward (F tensor) and backward (E tensor) byte components, for the
// machine with ratio alpha.
func interBytes(prev, next cost.Type, boundary int64, alpha, beta float64) (fwd, bwd float64) {
	f, e := cost.InterCommSplit(prev, next, boundary, alpha, beta)
	return f * tensor.BytesPerElement, e * tensor.BytesPerElement
}

// boundary returns the converted tensor size on the edge p→u: the smaller
// of the producer's output and the consumer's input (see the matching
// helper in internal/core).
func (b *builder) boundary(p, u int) int64 {
	out := b.units[p].Dims.AFNext()
	in := b.units[u].Dims.AF()
	if out < in {
		return out
	}
	return in
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

// growDone resizes a phase-completion table to n cleared slots.
func growDone(done []*task, n int) []*task {
	if cap(done) < n {
		return make([]*task, n)
	}
	done = done[:n]
	clear(done)
	return done
}

// build creates the full task graph of one iteration.
func (b *builder) build() error {
	n := len(b.units)
	b.edges = b.split.Net.Edges()
	b.indexEdges()

	// Derive traces.
	for m := 0; m < 2; m++ {
		if cap(b.traces[m]) < n {
			b.traces[m] = make([]*trace.Trace, n)
		}
		b.traces[m] = b.traces[m][:n]
	}
	for u := 0; u < n; u++ {
		if b.units[u].Virtual {
			b.traces[0][u], b.traces[1][u] = &trace.Trace{}, &trace.Trace{}
			continue
		}
		ti, tj, err := trace.GeneratePair(b.units[u].Dims, b.split.Types[u], b.split.Alpha)
		if err != nil {
			return err
		}
		b.traces[0][u], b.traces[1][u] = ti, tj
	}

	for m := 0; m < 2; m++ {
		b.fwdDone[m] = growDone(b.fwdDone[m], n)
		b.bwdDone[m] = growDone(b.bwdDone[m], n)
		b.gradDone[m] = growDone(b.gradDone[m], n)
	}

	// Upper bound on task count: per unit and machine one main task per
	// phase plus psum/update follow-ups, plus one transfer per edge
	// direction and machine. Pre-sizing the arena keeps the whole graph in
	// one slab.
	b.arena.grow(10*n + 4*len(b.edges))

	alpha, beta := b.split.Alpha, 1-b.split.Alpha
	ratio := [2][2]float64{{alpha, beta}, {beta, alpha}} // [machine][self,peer]

	// Forward sweep in topological (Units) order.
	for u := 0; u < n; u++ {
		var mains [2]*task
		var rbs [2]float64
		for m := 0; m < 2; m++ {
			inc := b.incoming[u]
			deps := b.deps.take(3 * len(inc))
			// Inter-layer conversion transfers on each incoming edge.
			for _, p := range inc {
				deps = append(deps, b.fwdDone[m][p], b.fwdDone[1-m][p])
				fb, _ := interBytes(b.split.Types[p], b.split.Types[u], b.boundary(p, u), ratio[m][0], ratio[m][1])
				if fb > 0 {
					xdeps := b.deps.take(2)
					xdeps = append(xdeps, b.fwdDone[m][p], b.fwdDone[1-m][p])
					x := b.newTask(task{
						kind: taskXferF, unit: u, unit2: -1, machine: m, onNet: true,
						remoteBytes: fb, deps: xdeps,
					})
					deps = append(deps, x)
				}
			}
			deps = compactDeps(deps)
			fl, lb, rb := phaseWork(b.traces[m][u], cost.PhaseForward)
			mains[m] = b.newTask(task{
				kind: taskFwd, unit: u, unit2: -1, machine: m,
				flops: fl, localBytes: lb, deps: deps,
			})
			b.fwdDone[m][u] = mains[m]
			rbs[m] = rb
		}
		for m := 0; m < 2; m++ {
			if rbs[m] > 0 {
				// Type-II psum: remote access of the peer's partial sums —
				// both partials must be computed first.
				pdeps := b.deps.take(2)
				pdeps = append(pdeps, mains[m], mains[1-m])
				b.fwdDone[m][u] = b.newTask(task{
					kind: taskPsumF, unit: u, unit2: -1, machine: m, onNet: true,
					remoteBytes: rbs[m], deps: pdeps,
				})
			}
		}
	}

	// Backward sweep in reverse order.
	for u := n - 1; u >= 0; u-- {
		var mains [2]*task
		var rbs [2]float64
		for m := 0; m < 2; m++ {
			outs := b.outgoing[u]
			var deps []*task
			if len(outs) == 0 {
				// Loss boundary: backward starts after the forward sweep of
				// this unit.
				deps = b.deps.take(1)
				deps = append(deps, b.fwdDone[m][u])
			} else {
				deps = b.deps.take(3 * len(outs))
			}
			for _, cns := range outs {
				deps = append(deps, b.bwdDone[m][cns], b.bwdDone[1-m][cns])
				_, eb := interBytes(b.split.Types[u], b.split.Types[cns], b.boundary(u, cns), ratio[m][0], ratio[m][1])
				if eb > 0 {
					xdeps := b.deps.take(2)
					xdeps = append(xdeps, b.bwdDone[m][cns], b.bwdDone[1-m][cns])
					x := b.newTask(task{
						kind: taskXferE, unit: u, unit2: cns, machine: m, onNet: true,
						remoteBytes: eb, deps: xdeps,
					})
					deps = append(deps, x)
				}
			}
			deps = compactDeps(deps)
			fl, lb, rb := phaseWork(b.traces[m][u], cost.PhaseBackward)
			mains[m] = b.newTask(task{
				kind: taskBwd, unit: u, unit2: -1, machine: m,
				flops: fl, localBytes: lb, deps: deps,
			})
			b.bwdDone[m][u] = mains[m]
			rbs[m] = rb
		}
		for m := 0; m < 2; m++ {
			if rbs[m] > 0 {
				// Type-III psum exchange — both partials must exist.
				pdeps := b.deps.take(2)
				pdeps = append(pdeps, mains[m], mains[1-m])
				b.bwdDone[m][u] = b.newTask(task{
					kind: taskPsumE, unit: u, unit2: -1, machine: m, onNet: true,
					remoteBytes: rbs[m], deps: pdeps,
				})
			}
		}
	}

	// Gradient computations: need the unit's input (forward of producers,
	// conservatively the unit's own forward completion) and its output
	// error (backward of this unit includes receipt of E_{l+1}).
	for u := 0; u < n; u++ {
		if b.units[u].Virtual {
			for m := 0; m < 2; m++ {
				b.gradDone[m][u] = b.bwdDone[m][u]
			}
			continue
		}
		var mains [2]*task
		var rbs [2]float64
		for m := 0; m < 2; m++ {
			fl, lb, rb := phaseWork(b.traces[m][u], cost.PhaseGradient)
			gdeps := b.deps.take(2)
			gdeps = append(gdeps, b.fwdDone[m][u], b.bwdDone[m][u])
			mains[m] = b.newTask(task{
				kind: taskGrad, unit: u, unit2: -1, machine: m,
				flops: fl, localBytes: lb, deps: gdeps,
			})
			b.gradDone[m][u] = mains[m]
			rbs[m] = rb
		}
		for m := 0; m < 2; m++ {
			if rbs[m] > 0 {
				// Type-I psum exchange of ΔW partial sums — both partials
				// must exist.
				pdeps := b.deps.take(2)
				pdeps = append(pdeps, mains[m], mains[1-m])
				b.gradDone[m][u] = b.newTask(task{
					kind: taskPsumW, unit: u, unit2: -1, machine: m, onNet: true,
					remoteBytes: rbs[m], deps: pdeps,
				})
			}
		}
		// Weight-update phase over each machine's kernel shard
		// (Section 2.1): replicated kernels (Type-I) update in full on
		// both machines; sharded kernels update their share only.
		for m := 0; m < 2; m++ {
			w := b.weightShard(u, m)
			if w == 0 {
				continue
			}
			udeps := b.deps.take(1)
			udeps = append(udeps, b.gradDone[m][u])
			b.gradDone[m][u] = b.newTask(task{
				kind: taskUpdate, unit: u, unit2: -1, machine: m,
				flops:      float64(b.optimizer.UpdateFLOPs(w)),
				localBytes: float64(b.optimizer.UpdateMemBytes(w)),
				deps:       udeps,
			})
		}
	}
	return nil
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

// compactDeps removes duplicates and nils in place. Dependency lists are
// a handful of entries, so the quadratic scan beats a map allocation.
func compactDeps(deps []*task) []*task {
	out := deps[:0]
	for _, d := range deps {
		if d == nil {
			continue
		}
		dup := false
		for _, o := range out {
			if o == d {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, d)
		}
	}
	return out
}

// schedule performs deterministic list scheduling: tasks are considered in
// creation order (a topological order by construction) and each starts at
// the max of its dependencies' finish times and its resource's free time.
// With an injector, each task additionally draws its transient-fault
// outcome — every failed attempt re-executes the task in full after its
// backoff, occupying the resource throughout — and group-loss faults
// append their checkpoint-restart penalty to the makespan.
func (b *builder) schedule(cfg Config, inj *faults.Injector) (*Result, error) {
	var computeFree, netFree [2]float64
	res := &Result{Tasks: len(b.tasks)}
	if cfg.RecordTimeline {
		res.Timeline = make([]TaskTiming, 0, len(b.tasks))
	}

	for _, t := range b.tasks {
		start := 0.0
		for _, d := range t.deps {
			if !d.scheduled {
				return nil, fmt.Errorf("sim: task %s depends on unscheduled %s", b.taskName(t), b.taskName(d))
			}
			if d.done > start {
				start = d.done
			}
		}
		m := b.machines[t.machine]
		var dur float64
		if t.onNet {
			dur = t.remoteBytes / m.NetBW
		} else {
			dur = math.Max(t.flops/m.Compute, t.localBytes/m.MemBW)
		}
		if inj != nil {
			if retries, backoff := inj.TaskFault(t.machine); retries > 0 {
				lost := float64(retries)*dur + backoff
				res.Retries[t.machine] += retries
				res.LostTime[t.machine] += lost
				dur += lost
			}
		}
		if t.onNet {
			resFree := &netFree[t.machine]
			if !cfg.OverlapComm {
				// Serialize with compute: the transfer occupies both.
				if computeFree[t.machine] > start {
					start = computeFree[t.machine]
				}
			}
			if *resFree > start {
				start = *resFree
			}
			t.done = start + dur
			*resFree = t.done
			if !cfg.OverlapComm {
				computeFree[t.machine] = t.done
			}
			res.NetBusy[t.machine] += dur
			res.RemoteBytes[t.machine] += t.remoteBytes
		} else {
			if computeFree[t.machine] > start {
				start = computeFree[t.machine]
			}
			t.done = start + dur
			computeFree[t.machine] = t.done
			res.ComputeBusy[t.machine] += dur
			res.FLOPs[t.machine] += t.flops
		}
		t.scheduled = true
		if t.done > res.Time {
			res.Time = t.done
		}
		if cfg.RecordTimeline {
			res.Timeline = append(res.Timeline, TaskTiming{
				Name: b.taskName(t), Machine: t.machine, OnNet: t.onNet,
				Start: t.done - dur, End: t.done,
			})
		}
	}

	if inj != nil {
		events := inj.LossPenalties(res.Time)
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

	if cfg.RecordTimeline {
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
	return res, nil
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
		total += (2*w+2*f)*tensor.BytesPerElement + b.optimizer.StateBytes(w)
	}
	return total
}
