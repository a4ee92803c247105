package diag

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accpar/internal/obs"
)

// newTestHandler builds a handler over a private registry and ring so
// tests do not race the process-wide defaults.
func newTestHandler(t *testing.T, opts Options) (*Handler, *obs.Registry, *obs.EventRing) {
	t.Helper()
	if opts.Registry == nil {
		opts.Registry = obs.NewRegistry()
	}
	if opts.Events == nil {
		opts.Events = obs.NewEventRing(16)
	}
	return NewHandler(opts), opts.Registry, opts.Events
}

func get(t *testing.T, h http.Handler, path string) (*http.Response, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	res := rec.Result()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res, string(body)
}

func TestMetricsEndpoints(t *testing.T) {
	h, reg, _ := newTestHandler(t, Options{})
	reg.NewCounter("test.requests").Add(3)
	tm := reg.NewTimer("test.latency.seconds")
	tm.Observe(5 * time.Millisecond)

	res, body := get(t, h, "/metrics")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	if ct := res.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Errorf("/metrics content-type %q", ct)
	}
	for _, want := range []string{
		"test_requests 3",
		"# TYPE test_latency_seconds histogram",
		`test_latency_seconds_bucket{le="+Inf"} 1`,
		"test_latency_seconds_count 1",
		"accpar_build_info{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	res, body = get(t, h, "/metrics.json")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics.json status %d", res.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json does not parse: %v", err)
	}
	if snap.Counters["test.requests"] != 3 || snap.Timers["test.latency.seconds"].Count != 1 {
		t.Errorf("/metrics.json snapshot %+v", snap)
	}
	if snap.Meta.GoVersion == "" {
		t.Error("/metrics.json snapshot has no build metadata")
	}
}

func TestHealthAndReadiness(t *testing.T) {
	var ready atomic.Bool
	h, _, _ := newTestHandler(t, Options{
		Health: []Check{{Name: "always", Probe: func() error { return nil }}},
		Ready: []Check{{Name: "serving", Probe: func() error {
			if !ready.Load() {
				return errors.New("draining")
			}
			return nil
		}}},
	})

	if res, body := get(t, h, "/healthz"); res.StatusCode != http.StatusOK || body != "ok\n" {
		t.Errorf("/healthz = %d %q; want 200 ok", res.StatusCode, body)
	}
	if res, body := get(t, h, "/readyz"); res.StatusCode != http.StatusServiceUnavailable ||
		!strings.Contains(body, "serving: draining") {
		t.Errorf("/readyz = %d %q; want 503 serving: draining", res.StatusCode, body)
	}
	ready.Store(true)
	if res, _ := get(t, h, "/readyz"); res.StatusCode != http.StatusOK {
		t.Errorf("/readyz after flip = %d; want 200", res.StatusCode)
	}
}

func TestDebugEvents(t *testing.T) {
	h, _, ring := newTestHandler(t, Options{})
	log := ring.Logger()
	for i := 0; i < 5; i++ {
		log.Info("test.decision", "i", i)
	}

	res, body := get(t, h, "/debug/events")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/events status %d", res.StatusCode)
	}
	var doc struct {
		Total  uint64         `json:"total"`
		Events []obs.LogEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("/debug/events does not parse: %v", err)
	}
	if doc.Total != 5 || len(doc.Events) != 5 {
		t.Errorf("events doc total=%d len=%d; want 5/5", doc.Total, len(doc.Events))
	}
	if doc.Events[0].Msg != "test.decision" {
		t.Errorf("event %+v", doc.Events[0])
	}

	_, body = get(t, h, "/debug/events?n=2")
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Events) != 2 || doc.Events[1].Seq != 5 {
		t.Errorf("?n=2 returned %d events, last seq %d; want the 2 newest", len(doc.Events), doc.Events[len(doc.Events)-1].Seq)
	}

	if res, _ := get(t, h, "/debug/events?n=-1"); res.StatusCode != http.StatusBadRequest {
		t.Errorf("negative n status %d; want 400", res.StatusCode)
	}
}

func TestDebugTraceCapture(t *testing.T) {
	h, _, _ := newTestHandler(t, Options{})

	// Spans emitted during the window land in the served document.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			sp := obs.StartSpanCtx(context.Background(), "planner", "windowed-work")
			time.Sleep(time.Millisecond)
			sp.End()
		}
	}()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/trace?sec=0.2", nil))
	<-done
	res := rec.Result()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/trace status %d", res.StatusCode)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	saw := false
	for _, e := range doc.TraceEvents {
		if e["name"] == "windowed-work" {
			saw = true
			break
		}
	}
	if !saw {
		t.Error("captured window contains no spans emitted during it")
	}
	if obs.Tracing() {
		t.Error("window tracer still attached after capture")
	}

	// A pre-attached tracer (CLI -trace-out) does not block the capture:
	// the window records alongside it, and the pre-attached tracer stays
	// attached and keeps receiving spans.
	tr := obs.NewTracer()
	obs.AttachTracer(tr)
	defer obs.DetachTracer(tr)
	before := tr.Len()
	done = make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			sp := obs.StartSpanCtx(context.Background(), "planner", "shared-work")
			time.Sleep(time.Millisecond)
			sp.End()
		}
	}()
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/trace?sec=0.1", nil))
	<-done
	if rec.Result().StatusCode != http.StatusOK {
		t.Errorf("capture with attached tracer status %d; want 200", rec.Result().StatusCode)
	}
	n := tr.Len()
	obs.StartSpanCtx(context.Background(), "planner", "after-capture").End()
	if tr.Len() == n {
		t.Error("capture detached the pre-existing tracer")
	}
	if tr.Len() <= before {
		t.Error("pre-attached tracer received no spans during the capture window")
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/trace?sec=nope", nil))
	if rec.Result().StatusCode != http.StatusBadRequest {
		t.Errorf("bad sec status %d; want 400", rec.Result().StatusCode)
	}
}

func TestPprofIndexServed(t *testing.T) {
	h, _, _ := newTestHandler(t, Options{})
	res, body := get(t, h, "/debug/pprof/")
	if res.StatusCode != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ = %d; want the pprof index", res.StatusCode)
	}
}

func TestServerStartShutdown(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Options{Registry: obs.NewRegistry(), Events: obs.NewEventRing(8)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Errorf("live /healthz status %d", res.StatusCode)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Error("server still serving after shutdown")
	}
}
