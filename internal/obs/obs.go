// Package obs is the zero-dependency observability layer the planning and
// simulation stack reports into: an atomic counter/gauge/timer registry
// (this file) and a span-style tracer rendering Chrome Trace Event Format
// JSON (trace.go).
//
// Design constraints, in order:
//
//   - The disabled path must be near-free. Counters and timers are plain
//     atomics — incrementing one never allocates — and span creation with
//     no tracer attached is a single atomic pointer load returning a zero
//     Span value. The obs benchmarks assert 0 allocs/op for the whole
//     instrumented sequence.
//   - Observation must never perturb decisions. Nothing in this package
//     feeds back into the planner or simulator; the core equivalence tests
//     hold plans byte-identical with tracing enabled and disabled.
//   - No dependencies. The package imports only the standard library and
//     is imported by leaf packages (core, sim, admission), so it must
//     never import anything above them.
//
// Instrumented packages declare their metrics once as package-level vars
// (obs.NewCounter registers into the default registry at init time) and
// mutate them from hot paths. Exposition is pull-based: Snapshot,
// WriteJSON and WriteText read the registry on demand — there is no
// background goroutine and no sink until a caller asks.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// FloatCounter is a monotonically increasing float metric (accumulated
// seconds, bytes-as-float, ...), updated lock-free via a CAS loop on the
// value's bit pattern.
type FloatCounter struct {
	bits atomic.Uint64
}

// Add accumulates v into the counter.
func (f *FloatCounter) Add(v float64) {
	for {
		old := f.bits.Load()
		cur := math.Float64frombits(old)
		if f.bits.CompareAndSwap(old, math.Float64bits(cur+v)) {
			return
		}
	}
}

// Value returns the accumulated total.
func (f *FloatCounter) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// Gauge is a last-value-wins float metric that also supports relative
// adjustment (in-flight request counts and the like).
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta, lock-free via a CAS loop on the value's
// bit pattern.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		cur := math.Float64frombits(old)
		if g.bits.CompareAndSwap(old, math.Float64bits(cur+delta)) {
			return
		}
	}
}

// Value returns the last stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the fixed log2 bucket count of a Timer histogram. Bucket
// i < histBuckets-1 covers durations in (2^(i-1)-1, 2^i-1] nanoseconds
// (bucket 0 is exactly 0 ns); the last bucket is the +Inf overflow.
// 2^(histBuckets-2)-1 ns ≈ 73 minutes, far beyond any planner latency.
const histBuckets = 43

// bucketIndex maps a non-negative duration in nanoseconds to its bucket.
func bucketIndex(ns int64) int {
	idx := bits.Len64(uint64(ns))
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketUpperNs returns bucket i's inclusive upper bound in nanoseconds;
// the last bucket returns +Inf.
func bucketUpperNs(i int) float64 {
	if i >= histBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i) - 1)
}

// Timer accumulates observed durations into a log-bucketed histogram:
// count, total, min/max and per-bucket counts, all plain atomics so the
// hot path never allocates or locks. Percentiles are estimated at
// snapshot time from the bucket boundaries, clamped to the observed
// [min, max] (exact for single-observation timers).
type Timer struct {
	count atomic.Int64
	ns    atomic.Int64
	// minp1/maxp1 store the extreme observation + 1 ns, so the zero value
	// means "no observation yet" and Reset can zero every field uniformly.
	minp1    atomic.Int64
	maxp1    atomic.Int64
	buckets  [histBuckets]atomic.Int64
	exemplar atomic.Pointer[Exemplar]
}

// Exemplar links a histogram to the trace of a notable observation, so a
// dashboard reader can jump from a p99 spike to the capture behind it.
type Exemplar struct {
	// TraceID names the flight-recorder capture of the observation.
	TraceID string `json:"trace_id"`
	// Seconds is the exemplified observation's duration.
	Seconds float64 `json:"seconds"`
}

// SetExemplar attaches the trace id of a notable (typically slow)
// observation to the timer; the latest call wins. Purely decorative:
// it never affects the histogram counts.
func (t *Timer) SetExemplar(traceID string, d time.Duration) {
	t.exemplar.Store(&Exemplar{TraceID: traceID, Seconds: d.Seconds()})
}

// Observe records one duration (negative durations clamp to zero).
func (t *Timer) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	t.count.Add(1)
	t.ns.Add(ns)
	for {
		old := t.minp1.Load()
		if old != 0 && old <= ns+1 {
			break
		}
		if t.minp1.CompareAndSwap(old, ns+1) {
			break
		}
	}
	for {
		old := t.maxp1.Load()
		if old >= ns+1 {
			break
		}
		if t.maxp1.CompareAndSwap(old, ns+1) {
			break
		}
	}
	t.buckets[bucketIndex(ns)].Add(1)
}

// Stats returns the observation count and total duration.
func (t *Timer) Stats() (count int64, total time.Duration) {
	return t.count.Load(), time.Duration(t.ns.Load())
}

// HistBucket is one cumulative histogram bucket: the count of
// observations at or below UpperSeconds.
type HistBucket struct {
	// UpperSeconds is the bucket's inclusive upper bound; +Inf on the
	// overflow bucket.
	UpperSeconds float64 `json:"le"`
	// Count is the cumulative observation count ≤ UpperSeconds.
	Count int64 `json:"count"`
}

// HistStats is a timer's exported snapshot: totals, extremes, estimated
// percentiles and the cumulative bucket counts backing them.
type HistStats struct {
	// Count is the number of observations.
	Count int64 `json:"count"`
	// TotalSeconds is the accumulated duration.
	TotalSeconds float64 `json:"total_seconds"`
	// MinSeconds and MaxSeconds are the observed extremes (0 when empty).
	MinSeconds float64 `json:"min_seconds"`
	MaxSeconds float64 `json:"max_seconds"`
	// P50Seconds, P95Seconds and P99Seconds are percentile estimates from
	// the log-bucketed histogram, clamped to [MinSeconds, MaxSeconds].
	P50Seconds float64 `json:"p50_seconds"`
	P95Seconds float64 `json:"p95_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	// Buckets is the cumulative histogram, trimmed to the occupied
	// prefix; renderers append the +Inf bucket from Count.
	Buckets []HistBucket `json:"buckets,omitempty"`
	// Exemplar, when present, names the flight-recorder trace of a
	// notable observation (see Timer.SetExemplar).
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts.
func (h HistStats) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	est := h.MaxSeconds
	for _, b := range h.Buckets {
		if b.Count >= rank {
			est = b.UpperSeconds
			break
		}
	}
	return math.Min(math.Max(est, h.MinSeconds), h.MaxSeconds)
}

// HistStats snapshots the timer. The read is not atomic with respect to
// concurrent Observe calls; each field is individually consistent and the
// percentile estimates are clamped into the observed range.
func (t *Timer) HistStats() HistStats {
	h := HistStats{Count: t.count.Load()}
	h.TotalSeconds = time.Duration(t.ns.Load()).Seconds()
	if minp1 := t.minp1.Load(); minp1 > 0 {
		h.MinSeconds = time.Duration(minp1 - 1).Seconds()
	}
	if maxp1 := t.maxp1.Load(); maxp1 > 0 {
		h.MaxSeconds = time.Duration(maxp1 - 1).Seconds()
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		n := t.buckets[i].Load()
		if n == 0 {
			continue
		}
		cum += n
		h.Buckets = append(h.Buckets, HistBucket{
			UpperSeconds: bucketUpperNs(i) / 1e9,
			Count:        cum,
		})
	}
	h.P50Seconds = h.Quantile(0.50)
	h.P95Seconds = h.Quantile(0.95)
	h.P99Seconds = h.Quantile(0.99)
	if ex := t.exemplar.Load(); ex != nil {
		cp := *ex
		h.Exemplar = &cp
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's metrics, the JSON dump
// format of the -metrics-out CLI flags and accpar.Metrics.
type Snapshot struct {
	// Meta identifies the producing process: build, runtime and start
	// time metadata.
	Meta BuildMeta `json:"meta"`
	// Counters holds integer counters by name.
	Counters map[string]int64 `json:"counters"`
	// Gauges holds float-valued metrics by name: gauges and float
	// accumulators (busy seconds and the like).
	Gauges map[string]float64 `json:"gauges"`
	// Timers holds timer histograms by name.
	Timers map[string]HistStats `json:"timers"`
}

// Registry is a named collection of metrics. Registration (New*) takes a
// lock and is meant for package init; reads of the registered metrics are
// lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	floats   map[string]*FloatCounter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		floats:   map[string]*FloatCounter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
	}
}

// defaultRegistry is the process-wide registry every package-level New*
// helper registers into.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// checkName panics on duplicate registration — metric names are declared
// once per process at package init, so a collision is a programming error
// worth failing loudly on.
func (r *Registry) checkName(name string) {
	if _, ok := r.counters[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if _, ok := r.floats[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
	if _, ok := r.timers[name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric %q", name))
	}
}

// NewCounter registers and returns a counter.
func (r *Registry) NewCounter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// NewFloatCounter registers and returns a float accumulator.
func (r *Registry) NewFloatCounter(name string) *FloatCounter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	f := &FloatCounter{}
	r.floats[name] = f
	return f
}

// NewGauge registers and returns a gauge.
func (r *Registry) NewGauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// NewTimer registers and returns a timer.
func (r *Registry) NewTimer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkName(name)
	t := &Timer{}
	r.timers[name] = t
	return t
}

// Package-level registration helpers against the default registry.

// NewCounter registers a counter in the default registry.
func NewCounter(name string) *Counter { return defaultRegistry.NewCounter(name) }

// NewFloatCounter registers a float accumulator in the default registry.
func NewFloatCounter(name string) *FloatCounter { return defaultRegistry.NewFloatCounter(name) }

// NewGauge registers a gauge in the default registry.
func NewGauge(name string) *Gauge { return defaultRegistry.NewGauge(name) }

// NewTimer registers a timer in the default registry.
func NewTimer(name string) *Timer { return defaultRegistry.NewTimer(name) }

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Meta:     Build(),
		Counters: make(map[string]int64, len(r.counters)),
		Gauges:   make(map[string]float64, len(r.floats)+len(r.gauges)),
		Timers:   make(map[string]HistStats, len(r.timers)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, f := range r.floats {
		s.Gauges[name] = f.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, t := range r.timers {
		s.Timers[name] = t.HistStats()
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteText writes the snapshot in expvar-style text: one "name value"
// line per metric, sorted by name; timers render as "name count total
// p50=… p95=… p99=…".
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	lines := make([]string, 0, len(s.Counters)+len(s.Gauges)+len(s.Timers))
	for name, v := range s.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, v))
	}
	for name, v := range s.Gauges {
		lines = append(lines, fmt.Sprintf("%s %g", name, v))
	}
	for name, v := range s.Timers {
		lines = append(lines, fmt.Sprintf("%s %d %gs p50=%gs p95=%gs p99=%gs",
			name, v.Count, v.TotalSeconds, v.P50Seconds, v.P95Seconds, v.P99Seconds))
	}
	slices.Sort(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}
