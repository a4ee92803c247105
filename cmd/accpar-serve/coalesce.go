package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"accpar/internal/obs"
)

// Request coalescing (singleflight at the HTTP layer). Planning is pure:
// two requests describing the same workload produce byte-identical
// responses, so when they arrive concurrently the second one computing
// anything is pure waste — under a thundering herd (a fleet of trainers
// replanning after the same fault, a dashboard fan-out) the duplicated
// searches also queue behind each other in admission and inflate tail
// latency. The coalescer keys each POST body by endpoint + canonicalized
// request and lets one leader run the handler while byte-equivalent
// followers wait and share its response bytes.
//
// Sharing is only safe for pure outputs: responses with status ≥ 400
// (deadline expiry, shed, bad workload) may reflect the leader's luck
// rather than the request's content, so followers of a failed flight
// re-execute solo. Requests whose body does not parse as JSON are never
// coalesced — the handler owns the error shape.

// obsCoalesced counts requests served from another request's in-flight
// computation instead of executing their handler.
var obsCoalesced = obs.NewCounter("serve.request_coalesced")

func init() {
	obs.SetHelp("serve_request_coalesced", "Requests coalesced onto a byte-equivalent in-flight request's response.")
}

// flight is one in-progress handler execution: followers block on done,
// then read the captured response.
type flight struct {
	done    chan struct{}
	waiters atomic.Int64
	code    int
	header  http.Header
	body    []byte
}

// coalescer tracks in-flight requests by canonical key.
type coalescer struct {
	mu      sync.Mutex
	flights map[string]*flight
}

func newCoalescer() *coalescer {
	return &coalescer{flights: map[string]*flight{}}
}

// waiting reports how many followers are blocked on key's flight (tests
// use it to sequence leaders and followers deterministically); zero when
// no flight is registered.
func (c *coalescer) waiting(key string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	f, ok := c.flights[key]
	if !ok {
		return 0
	}
	return f.waiters.Load()
}

// canonicalKey canonicalizes a JSON request body: whitespace and object
// key order are erased (Go marshals map keys sorted), so requests that
// decode identically coalesce even when their bytes differ. The second
// result is false for bodies that are not JSON — those never coalesce.
func canonicalKey(endpoint string, body []byte) (string, bool) {
	trimmed := bytes.TrimSpace(body)
	if len(trimmed) == 0 {
		// An empty body is a valid all-defaults request.
		trimmed = []byte("{}")
	}
	var v any
	if err := json.Unmarshal(trimmed, &v); err != nil {
		return "", false
	}
	canon, err := json.Marshal(v)
	if err != nil {
		return "", false
	}
	sum := sha256.Sum256(canon)
	return endpoint + string(sum[:]), true
}

// captureWriter buffers a leader's response so followers can replay it.
type captureWriter struct {
	header http.Header
	code   int
	buf    bytes.Buffer
}

func newCaptureWriter() *captureWriter {
	return &captureWriter{header: http.Header{}}
}

func (cw *captureWriter) Header() http.Header { return cw.header }

func (cw *captureWriter) WriteHeader(code int) {
	if cw.code == 0 {
		cw.code = code
	}
}

func (cw *captureWriter) Write(b []byte) (int, error) {
	if cw.code == 0 {
		cw.code = http.StatusOK
	}
	return cw.buf.Write(b)
}

// replay writes a completed flight's response to a follower.
func replay(w http.ResponseWriter, f *flight) {
	for k, vs := range f.header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(f.code)
	if _, err := w.Write(f.body); err != nil {
		obsEncodeErrors.Inc()
		obs.Log().Warn("serve.response_write_failed", "err", err.Error())
	}
}

// coalesce wraps h with request coalescing for one endpoint. It reads
// the body (restoring it for h), so it must sit inside any middleware
// that needs the original stream and outside the admission guard —
// followers neither hold admission weight nor occupy a queue slot.
func (c *coalescer) coalesce(endpoint string, maxBody int64, h http.HandlerFunc) http.HandlerFunc {
	solo := func(w http.ResponseWriter, r *http.Request, body []byte) {
		r.Body = io.NopCloser(bytes.NewReader(body))
		h(w, r)
	}
	return func(w http.ResponseWriter, r *http.Request) {
		// Read at most one byte past the bound: an oversize body skips
		// coalescing and runs solo into the handler's own 413 path.
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
		if err != nil || int64(len(body)) > maxBody {
			solo(w, r, body)
			return
		}
		key, ok := canonicalKey(endpoint, body)
		if !ok {
			solo(w, r, body)
			return
		}

		c.mu.Lock()
		if f, inFlight := c.flights[key]; inFlight {
			f.waiters.Add(1)
			c.mu.Unlock()
			select {
			case <-f.done:
			case <-r.Context().Done():
				// The follower's client went away while waiting; there is
				// nobody left to answer.
				captureFrom(r.Context()).noteCoalesced()
				return
			}
			if f.code < http.StatusBadRequest {
				obsCoalesced.Inc()
				captureFrom(r.Context()).noteCoalesced()
				replay(w, f)
				return
			}
			// The leader failed; failures are not shareable facts about the
			// workload (a deadline or shed is the leader's circumstance), so
			// the follower runs for itself.
			solo(w, r, body)
			return
		}
		f := &flight{done: make(chan struct{})}
		c.flights[key] = f
		c.mu.Unlock()

		cw := newCaptureWriter()
		// Deregister and release followers even if h panics (the recovery
		// middleware is outermost and answers the leader's 500 itself); a
		// flight torn down by panic reads as a failure, so followers
		// re-execute rather than share nothing.
		completed := false
		finish := func() {
			f.header = cw.header
			f.body = cw.buf.Bytes()
			c.mu.Lock()
			delete(c.flights, key)
			c.mu.Unlock()
			close(f.done)
		}
		defer func() {
			if !completed {
				f.code = http.StatusInternalServerError
				finish()
			}
		}()
		solo(cw, r, body)
		completed = true
		f.code = cw.code
		if f.code == 0 {
			f.code = http.StatusOK
		}
		finish()
		replay(w, f)
	}
}
