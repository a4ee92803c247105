package diag

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"time"

	"accpar/internal/obs"
)

// The flight recorder is the tail-latency half of the diagnostics layer:
// an always-on, bounded store of the N slowest requests the server has
// handled, each retained with its full per-request trace and search-audit
// summary. Where /debug/trace answers "what is the process doing right
// now", /debug/slowest answers "what did the worst requests of the last
// hour look like" — after the fact, with no need to have been watching.
//
// Captures are offered by the serving layer after each request finishes;
// the recorder keeps a capture only while it remains among the N slowest
// ever offered (an eviction contest, not a ring), so a burst of fast
// traffic never flushes the interesting outliers.

// Capture is one retained slow request: identity, outcome, and the
// per-request observability artifacts. TraceEvents and Audit are served
// by GET /debug/slowest/{id}; the index omits them.
type Capture struct {
	// ID names the capture in /debug/slowest/{id}; assigned by Offer.
	ID string `json:"id"`
	// Endpoint is the request route, e.g. "/v1/plan".
	Endpoint string `json:"endpoint"`
	// Status is the HTTP status the request finished with.
	Status int `json:"status"`
	// Start is the request's arrival time.
	Start time.Time `json:"start"`
	// DurationSeconds is the request's wall-clock duration — the ranking
	// key.
	DurationSeconds float64 `json:"duration_seconds"`
	// Tag is the caller-supplied request tag, when the request carried one.
	Tag string `json:"tag,omitempty"`
	// Request is the effective request as JSON: what the server planned,
	// with the defaults filled in.
	Request json.RawMessage `json:"request,omitempty"`
	// Events counts the retained trace events; DroppedEvents counts those
	// the bounded per-request tracer discarded past its cap.
	Events        int   `json:"events"`
	DroppedEvents int64 `json:"dropped_events,omitempty"`
	// TraceEvents is the request's scoped trace; Audit its search-audit
	// report, when the planner recorded one. Both are detail-only.
	TraceEvents []obs.Event     `json:"-"`
	Audit       json.RawMessage `json:"-"`
}

// FlightRecorder retains the N slowest captures ever offered. Safe for
// concurrent use.
type FlightRecorder struct {
	mu   sync.Mutex
	max  int
	caps []*Capture // sorted slowest-first; len ≤ max
	seq  int64
	seen int64
}

// NewFlightRecorder returns a recorder keeping the n slowest captures
// (n < 1 selects 16).
func NewFlightRecorder(n int) *FlightRecorder {
	if n < 1 {
		n = 16
	}
	return &FlightRecorder{max: n}
}

// Cap returns the recorder's retention bound.
func (f *FlightRecorder) Cap() int { return f.max }

// Seen returns how many captures were ever offered.
func (f *FlightRecorder) Seen() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seen
}

// Offer submits a finished request. It returns the assigned capture id
// and whether the capture was retained — i.e. whether it ranks among the
// N slowest seen so far. Ties keep the earlier capture.
func (f *FlightRecorder) Offer(c Capture) (id string, kept bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seen++
	f.seq++
	c.ID = "r" + strconv.FormatInt(f.seq, 10)
	c.Events = len(c.TraceEvents)
	if len(f.caps) == f.max && c.DurationSeconds <= f.caps[len(f.caps)-1].DurationSeconds {
		return c.ID, false
	}
	if len(f.caps) == f.max {
		f.caps = f.caps[:len(f.caps)-1]
	}
	stored := c
	at := sort.Search(len(f.caps), func(i int) bool {
		return f.caps[i].DurationSeconds < stored.DurationSeconds
	})
	f.caps = append(f.caps, nil)
	copy(f.caps[at+1:], f.caps[at:])
	f.caps[at] = &stored
	return c.ID, true
}

// Index returns the retained captures, slowest first.
func (f *FlightRecorder) Index() []Capture {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Capture, len(f.caps))
	for i, c := range f.caps {
		out[i] = *c
	}
	return out
}

// Get returns the retained capture with the given id.
func (f *FlightRecorder) Get(id string) (Capture, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, c := range f.caps {
		if c.ID == id {
			return *c, true
		}
	}
	return Capture{}, false
}

// slowestDoc is the /debug/slowest index response.
type slowestDoc struct {
	// Seen counts requests ever offered; Cap bounds retention.
	Seen int64 `json:"seen"`
	Cap  int   `json:"cap"`
	// Captures are the retained requests, slowest first.
	Captures []Capture `json:"captures"`
}

// captureDoc is the /debug/slowest/{id} response: a Chrome Trace Event
// Format document (Perfetto loads it directly, ignoring the extra keys)
// with the capture metadata and audit report alongside.
type captureDoc struct {
	TraceEvents     []obs.Event     `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
	Capture         Capture         `json:"accparCapture"`
	Audit           json.RawMessage `json:"accparAudit,omitempty"`
}
