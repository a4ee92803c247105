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

// Per-request capture: record gives every executed request a bounded
// scoped tracer and a capture note the handler fills in (tag, workload
// summary, audit report), then offers the finished request to the
// flight recorder behind /debug/slowest.

// maxRequestTraceEvents bounds one request's scoped trace; the overflow
// is counted in the capture's DroppedEvents.
const maxRequestTraceEvents = 4096

// capture is the handler-supplied part of a flight-recorder capture.
// All methods are safe on a nil receiver, so handlers run outside record
// (tests calling them directly) need no special casing.
type capture struct {
	mu      sync.Mutex
	tag     string
	request string
	audit   json.RawMessage
}

type captureKey struct{}

// captureFrom returns the request's capture note, nil outside record.
func captureFrom(ctx context.Context) *capture {
	c, _ := ctx.Value(captureKey{}).(*capture)
	return c
}

// note records the request's tag and one-line workload summary.
func (c *capture) note(tag, request string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.tag, c.request = tag, request
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

// record wraps h so the request runs under its own scoped tracer and,
// once finished, is offered to the flight recorder as endpoint. A capture
// the recorder keeps becomes timer's exemplar, so the endpoint's latency
// histogram links to the latest retained trace.
func (s *server) record(endpoint string, timer *obs.Timer, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tr := obs.NewBoundedTracer(maxRequestTraceEvents)
		c := &capture{}
		ctx := obs.WithTracer(context.WithValue(r.Context(), captureKey{}, c), tr)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r.WithContext(ctx))
		dur := time.Since(start)
		c.mu.Lock()
		defer c.mu.Unlock()
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
			timer.SetExemplar(id, dur)
		}
	}
}
