package obs

import (
	"context"
	"encoding/json"
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the span half of the observability layer: timestamped
// events collected by a Tracer and rendered as Chrome Trace Event Format
// JSON, the format Perfetto and chrome://tracing load directly. Two event
// styles are used:
//
//   - Complete events ("ph":"X") carry an explicit start and duration and
//     live on a (pid, tid) lane. The simulator's timeline exporter uses
//     them: one lane per accelerator group × resource, where tasks never
//     overlap because the resource serializes them.
//   - Async events ("ph":"b"/"e") are paired by (cat, id) and tolerate
//     arbitrary overlap, so concurrent planner workers can emit spans
//     without coordinating lane ownership. Every Span gets a fresh id.
//
// Spans can be recorded into two kinds of sinks simultaneously:
//
//   - any number of attached tracers (AttachTracer/DetachTracer), which
//     receive every span in the process: a CLI -trace-out run and each
//     of diag's /debug/trace capture windows attach one, and overlapping
//     attachments all record;
//   - a context-scoped tracer (WithTracer/StartSpanCtx), so each serve
//     request or sweep records into its own isolated trace.
//
// When no sink exists anywhere, StartSpanCtx returns a zero Span without
// allocating or taking a lock — BenchmarkObsDisabled enforces it.

// Trace process ids, used to group lanes in the Perfetto UI.
const (
	// PidPlanner groups planner, evaluation and session spans.
	PidPlanner = 1
	// PidSim is the first simulator process; exporters of multiple runs
	// (e.g. a resilience report's three simulations) use PidSim, PidSim+1…
	PidSim = 10
)

// Event is one Chrome Trace Event Format record. Timestamps and durations
// are in microseconds, per the format.
type Event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ProcessNameEvent returns the metadata event labelling a pid in the UI.
func ProcessNameEvent(pid int, name string) Event {
	return Event{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}}
}

// ThreadNameEvent returns the metadata event labelling a (pid, tid) lane.
func ThreadNameEvent(pid, tid int, name string) Event {
	return Event{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]any{"name": name}}
}

// Tracer collects events. Safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	events  []Event
	epoch   time.Time
	max     int // 0 = unbounded
	dropped atomic.Int64
}

// NewTracer returns an unbounded tracer whose clock starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// NewBoundedTracer returns a tracer that keeps at most maxEvents events
// and counts the overflow (Dropped). Always-on per-request tracing uses
// it so a pathological request cannot grow a trace without bound.
func NewBoundedTracer(maxEvents int) *Tracer {
	return &Tracer{epoch: time.Now(), max: maxEvents}
}

// rel converts an absolute time to microseconds since the tracer's epoch,
// clamped at zero so sinks attached mid-span never see negative stamps.
func (t *Tracer) rel(at time.Time) float64 {
	us := float64(at.Sub(t.epoch)) / float64(time.Microsecond)
	if us < 0 {
		return 0
	}
	return us
}

// now returns microseconds since the tracer's epoch.
func (t *Tracer) now() float64 { return t.rel(time.Now()) }

// Append adds events verbatim (exporters injecting pre-timed lanes). On a
// bounded tracer, events past the bound are dropped and counted.
func (t *Tracer) Append(events ...Event) {
	t.mu.Lock()
	if t.max > 0 {
		room := t.max - len(t.events)
		if room < 0 {
			room = 0
		}
		if len(events) > room {
			t.dropped.Add(int64(len(events) - room))
			events = events[:room]
		}
	}
	t.events = append(t.events, events...)
	t.mu.Unlock()
}

// Dropped reports how many events were discarded because a bounded
// tracer's capacity was reached (always 0 for unbounded tracers).
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// Len reports how many events have been collected.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of everything collected so far.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// traceDoc is the JSON object trace form (Perfetto accepts both the bare
// array and this object; the object allows the display-unit hint).
type traceDoc struct {
	TraceEvents     []Event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit"`
}

// WriteTraceJSON renders events as a Chrome Trace Event Format document.
func WriteTraceJSON(w io.Writer, events []Event) error {
	if events == nil {
		events = []Event{}
	}
	b, err := json.MarshalIndent(traceDoc{TraceEvents: events, DisplayTimeUnit: "ms"}, "", " ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteJSON renders the tracer's events as a Chrome trace document.
func (t *Tracer) WriteJSON(w io.Writer) error {
	return WriteTraceJSON(w, t.Events())
}

// attached is the copy-on-write set of attached tracers; nil when empty
// so the disabled fast path is a single pointer load. Mutated only under
// attachMu; read lock-free by StartSpanCtx and Tracing.
var (
	attachMu sync.Mutex
	attached atomic.Pointer[[]*Tracer]
)

// AttachTracer adds t to the process's attached tracers: it receives
// every span recorded anywhere in the process until DetachTracer,
// alongside (never displacing) the other attached tracers and any
// context-scoped tracer. The planner and simulator pick it up on their
// next span; attaching mid-run simply truncates the trace, it never
// affects results. Attaching an already-attached or nil tracer is a
// no-op.
func AttachTracer(t *Tracer) {
	if t == nil {
		return
	}
	attachMu.Lock()
	defer attachMu.Unlock()
	old := attached.Load()
	var next []*Tracer
	if old != nil {
		for _, e := range *old {
			if e == t {
				return
			}
		}
		next = append(next, *old...)
	}
	next = append(next, t)
	attached.Store(&next)
}

// DetachTracer removes a tracer attached with AttachTracer; detaching a
// tracer that is not attached is a no-op.
func DetachTracer(t *Tracer) {
	attachMu.Lock()
	defer attachMu.Unlock()
	old := attached.Load()
	if old == nil {
		return
	}
	next := make([]*Tracer, 0, len(*old))
	for _, e := range *old {
		if e != t {
			next = append(next, e)
		}
	}
	switch {
	case len(next) == len(*old):
		return // not attached
	case len(next) == 0:
		attached.Store(nil)
	default:
		attached.Store(&next)
	}
}

// Tracing reports whether any attached tracer would receive spans.
// Instrumented code checks it before building span names that would
// otherwise allocate; code with a context in hand should use TracingCtx
// instead.
func Tracing() bool {
	return attached.Load() != nil
}

// tracerKey carries a request-scoped tracer in a context. An empty struct
// key keeps ctx.Value lookups allocation-free.
type tracerKey struct{}

// WithTracer returns a context carrying t. Spans opened with StartSpanCtx
// under the returned context record into t in addition to any attached
// tracers, so concurrent requests each get an isolated trace.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context-scoped tracer, nil if none (or ctx is nil).
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// TracingCtx reports whether a span started with this context would be
// recorded anywhere: context-scoped or attached.
func TracingCtx(ctx context.Context) bool {
	return Tracing() || TracerFrom(ctx) != nil
}

// spanIDs issues process-unique async span ids across all sinks, so a
// span recorded into several tracers pairs up under the same id in each.
var spanIDs atomic.Int64

// Span is one in-flight async span, possibly recording into several
// sinks. The zero Span (returned when tracing is disabled) is inert:
// End is a no-op.
type Span struct {
	t     *Tracer   // primary sink; nil marks the inert Span
	extra []*Tracer // remaining sinks, if more than one
	start time.Time
	id    int64
	name  string
	cat   string
}

// StartSpanCtx opens a span on the context-scoped tracer plus any
// attached tracers. A nil context is treated as carrying no tracer; with
// no sink anywhere the zero Span is returned without allocating.
func StartSpanCtx(ctx context.Context, cat, name string) Span {
	scoped := TracerFrom(ctx)
	att := attached.Load()
	if scoped == nil && att == nil {
		return Span{}
	}
	s := Span{start: time.Now(), id: spanIDs.Add(1), name: name, cat: cat}
	s.addSink(scoped)
	if att != nil {
		for _, t := range *att {
			s.addSink(t)
		}
	}
	return s
}

// addSink records t as a destination for the span, deduplicating so a
// tracer that is both context-scoped and attached gets the span once.
func (s *Span) addSink(t *Tracer) {
	if t == nil || t == s.t {
		return
	}
	for _, e := range s.extra {
		if e == t {
			return
		}
	}
	if s.t == nil {
		s.t = t
	} else {
		s.extra = append(s.extra, t)
	}
}

// End closes the span, appending its begin/end event pair to every sink.
// Timestamps are computed per sink from that sink's epoch.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := time.Now()
	id := strconv.FormatInt(s.id, 10)
	s.t.appendSpan(s.name, s.cat, id, s.start, end)
	for _, t := range s.extra {
		t.appendSpan(s.name, s.cat, id, s.start, end)
	}
}

func (t *Tracer) appendSpan(name, cat, id string, start, end time.Time) {
	t.Append(
		Event{Name: name, Cat: cat, Ph: "b", Ts: t.rel(start), Pid: PidPlanner, ID: id},
		Event{Name: name, Cat: cat, Ph: "e", Ts: t.rel(end), Pid: PidPlanner, ID: id},
	)
}
