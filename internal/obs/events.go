package obs

import (
	"context"
	"log/slog"
	"slices"
	"sync/atomic"
	"time"
)

// This file is the structured event half of the observability layer: a
// bounded lock-free ring of log/slog records that instrumented packages
// emit at decision points — replans and plan adoptions, cache evictions,
// fault injections. Decision points fire once per run,
// not per task, so the ring is always on; the per-task hot paths keep the
// 0-alloc disabled contract via counters and spans, never events.
//
// Writers claim a slot with one atomic increment and publish the record
// with one atomic pointer store; readers snapshot whatever slots are
// published. A reader racing a writer can miss the slot being overwritten
// — acceptable for a diagnostics ring, which trades strict consistency
// for never blocking the instrumented code.

// LogEvent is one structured record in the event ring.
type LogEvent struct {
	// Seq is the record's 1-based global sequence number; Seq > ring
	// capacity implies older records were overwritten.
	Seq uint64 `json:"seq"`
	// Time is the emission time.
	Time time.Time `json:"time"`
	// Level is the slog level string (INFO, WARN, ...).
	Level string `json:"level"`
	// Msg is the event name, dotted by convention ("plancache.evict").
	Msg string `json:"msg"`
	// Attrs holds the record's resolved attributes.
	Attrs map[string]any `json:"attrs,omitempty"`
}

// EventRing is a bounded lock-free ring of LogEvents. The zero value is
// not usable; construct with NewEventRing.
type EventRing struct {
	slots []atomic.Pointer[LogEvent]
	seq   atomic.Uint64
}

// DefaultEventCapacity bounds the default ring.
const DefaultEventCapacity = 256

// NewEventRing returns a ring holding the last capacity events
// (≤ 0 selects DefaultEventCapacity).
func NewEventRing(capacity int) *EventRing {
	if capacity <= 0 {
		capacity = DefaultEventCapacity
	}
	return &EventRing{slots: make([]atomic.Pointer[LogEvent], capacity)}
}

// Append publishes e, overwriting the oldest record once full. e must not
// be mutated afterwards.
func (r *EventRing) Append(e *LogEvent) {
	seq := r.seq.Add(1)
	e.Seq = seq
	r.slots[(seq-1)%uint64(len(r.slots))].Store(e)
}

// Total returns the number of events ever appended; Total minus the ring
// capacity bounds how many have been dropped.
func (r *EventRing) Total() uint64 { return r.seq.Load() }

// Events returns the retained records, oldest first.
func (r *EventRing) Events() []LogEvent {
	out := make([]LogEvent, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, *e)
		}
	}
	slices.SortFunc(out, func(a, b LogEvent) int {
		switch {
		case a.Seq < b.Seq:
			return -1
		case a.Seq > b.Seq:
			return 1
		default:
			return 0
		}
	})
	return out
}

// ringHandler adapts an EventRing into a slog.Handler.
type ringHandler struct {
	ring   *EventRing
	attrs  []slog.Attr
	prefix string // dotted group prefix from WithGroup
}

// Enabled admits Info and above; the ring is a decision log, not a debug
// firehose.
func (h ringHandler) Enabled(_ context.Context, level slog.Level) bool {
	return level >= slog.LevelInfo
}

// Handle converts the record and appends it to the ring.
func (h ringHandler) Handle(_ context.Context, rec slog.Record) error {
	e := &LogEvent{Time: rec.Time, Level: rec.Level.String(), Msg: rec.Message}
	if n := len(h.attrs) + rec.NumAttrs(); n > 0 {
		e.Attrs = make(map[string]any, n)
	}
	for _, a := range h.attrs {
		e.Attrs[a.Key] = a.Value.Resolve().Any()
	}
	rec.Attrs(func(a slog.Attr) bool {
		e.Attrs[h.prefix+a.Key] = a.Value.Resolve().Any()
		return true
	})
	h.ring.Append(e)
	return nil
}

// WithAttrs returns a handler stamping attrs on every record; the group
// prefix in effect now is baked into their keys.
func (h ringHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	out := slices.Clip(h.attrs)
	for _, a := range attrs {
		out = append(out, slog.Attr{Key: h.prefix + a.Key, Value: a.Value})
	}
	h.attrs = out
	return h
}

// WithGroup returns a handler prefixing subsequent attribute keys.
func (h ringHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	h.prefix = h.prefix + name + "."
	return h
}

// Logger returns a slog.Logger writing into the ring.
func (r *EventRing) Logger() *slog.Logger {
	return slog.New(ringHandler{ring: r})
}

// defaultRing is the process-wide event ring the instrumented packages
// emit into and /debug/events serves from.
var defaultRing = NewEventRing(0)

// DefaultEvents returns the process-wide event ring.
func DefaultEvents() *EventRing { return defaultRing }

// defaultLogger wraps the default ring.
var defaultLogger = defaultRing.Logger()

// Log returns the process-wide decision-event logger. Records land in the
// ring only — nothing is written to stderr — so instrumented packages can
// log unconditionally.
func Log() *slog.Logger { return defaultLogger }
