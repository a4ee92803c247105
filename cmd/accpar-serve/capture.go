package main

import (
	"context"
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"accpar/internal/diag"
	"accpar/internal/obs"
)

// Per-request observation: observe counts and times every request in its
// endpoint's metrics, gives it a bounded scoped tracer and a capture note
// the handler fills in (tag, effective request, audit report), then
// offers the finished request to the flight recorder behind
// /debug/slowest.

// maxRequestTraceEvents bounds one request's scoped trace; the overflow
// is counted in the capture's DroppedEvents.
const maxRequestTraceEvents = 4096

// capture is the handler-supplied part of a flight-recorder capture.
// All methods are safe on a nil receiver, so handlers run outside observe
// (tests calling them directly) need no special casing.
type capture struct {
	mu      sync.Mutex
	tag     string
	request json.RawMessage
	audit   json.RawMessage
	// coalesced marks a request the coalescer answered from another
	// request's flight (or that left while waiting on one): it ran no
	// handler, so there is nothing to capture.
	coalesced bool
}

type captureKey struct{}

// captureFrom returns the request's capture note, nil outside observe.
func captureFrom(ctx context.Context) *capture {
	c, _ := ctx.Value(captureKey{}).(*capture)
	return c
}

// note records the request's tag and its effective request: the spec as
// JSON, with the defaults filled in.
func (c *capture) note(tag string, request any) {
	if c == nil {
		return
	}
	body, _ := json.Marshal(request) // a spec value always marshals
	c.mu.Lock()
	c.tag, c.request = tag, body
	c.mu.Unlock()
}

// noteAudit records the request's search-audit report.
func (c *capture) noteAudit(audit json.RawMessage) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.audit = audit
	c.mu.Unlock()
}

// noteCoalesced marks the request as answered by another's flight.
func (c *capture) noteCoalesced() {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.coalesced = true
	c.mu.Unlock()
}

// statusWriter captures the response code for the metrics and the
// capture.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// observe wraps one endpoint's handler. It counts the request, times it
// into the endpoint's latency histogram, counts responses ≥ 400 as
// errors, and runs the handler under its own scoped tracer and capture
// note. The finished request is offered to the flight recorder as
// endpoint unless the coalescer answered it, and a capture the recorder
// keeps becomes the histogram's exemplar, so the endpoint's latency
// links to the latest retained trace.
func (s *server) observe(endpoint string, m *endpointMetrics, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m.requests.Inc()
		m.inflight.Add(1)
		start := time.Now()
		tr := obs.NewBoundedTracer(maxRequestTraceEvents)
		c := &capture{}
		ctx := obs.WithTracer(context.WithValue(r.Context(), captureKey{}, c), tr)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(ctx))
		dur := time.Since(start)
		m.timer.Observe(dur)
		m.inflight.Add(-1)
		if sw.code >= 400 {
			m.errors.Inc()
		}
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.coalesced {
			return
		}
		if id, kept := s.flight.Offer(diag.Capture{
			Endpoint:        endpoint,
			Status:          sw.code,
			Start:           start,
			DurationSeconds: dur.Seconds(),
			Tag:             c.tag,
			Request:         c.request,
			DroppedEvents:   tr.Dropped(),
			TraceEvents:     tr.Events(),
			Audit:           c.audit,
		}); kept {
			m.timer.SetExemplar(id, dur)
		}
	}
}
