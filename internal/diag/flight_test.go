package diag

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"accpar/internal/obs"
)

// TestConcurrentTraceWindows pins the satellite that retires the old
// one-capture-at-a-time 409: two overlapping POST /debug/trace windows
// both succeed and both observe spans emitted while they overlap.
func TestConcurrentTraceWindows(t *testing.T) {
	h, _, _ := newTestHandler(t, Options{})

	stop := make(chan struct{})
	var work sync.WaitGroup
	work.Add(1)
	go func() {
		defer work.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sp := obs.StartSpanCtx(context.Background(), "planner", "overlapped-work")
			time.Sleep(time.Millisecond)
			sp.End()
		}
	}()

	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, 2)
	for i := range recs {
		recs[i] = httptest.NewRecorder()
		wg.Add(1)
		go func(rec *httptest.ResponseRecorder) {
			defer wg.Done()
			h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/trace?sec=0.15", nil))
		}(recs[i])
	}
	wg.Wait()
	close(stop)
	work.Wait()

	for i, rec := range recs {
		res := rec.Result()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("window %d status %d; want 200 (the 409 limitation is retired)", i, res.StatusCode)
		}
		var doc struct {
			TraceEvents []obs.Event `json:"traceEvents"`
		}
		if err := json.NewDecoder(res.Body).Decode(&doc); err != nil {
			t.Fatalf("window %d trace does not parse: %v", i, err)
		}
		saw := false
		for _, e := range doc.TraceEvents {
			if e.Name == "overlapped-work" {
				saw = true
				break
			}
		}
		if !saw {
			t.Errorf("window %d captured no spans while overlapping", i)
		}
	}
	if obs.Tracing() {
		t.Error("window tracers still attached after both captures")
	}
}

func TestFlightRecorderKeepsSlowest(t *testing.T) {
	f := NewFlightRecorder(3)
	durations := []float64{0.10, 0.50, 0.05, 0.30, 0.20, 0.01}
	var ids []string
	var kept []bool
	for i, d := range durations {
		id, k := f.Offer(Capture{
			Endpoint:        "/v1/plan",
			Status:          200,
			DurationSeconds: d,
			Request:         json.RawMessage(`{"model":"` + strings.Repeat("x", i) + `"}`),
		})
		ids = append(ids, id)
		kept = append(kept, k)
	}
	// 0.01 never ranks; 0.05 and 0.10 are retained at first, then evicted.
	wantKept := []bool{true, true, true, true, true, false}
	for i := range kept {
		if kept[i] != wantKept[i] {
			t.Errorf("offer %d (%.2fs): kept=%v; want %v", i, durations[i], kept[i], wantKept[i])
		}
	}
	if f.Seen() != int64(len(durations)) {
		t.Errorf("Seen() = %d; want %d", f.Seen(), len(durations))
	}

	idx := f.Index()
	if len(idx) != 3 {
		t.Fatalf("index has %d captures; want 3", len(idx))
	}
	wantOrder := []float64{0.50, 0.30, 0.20}
	for i, c := range idx {
		if c.DurationSeconds != wantOrder[i] {
			t.Errorf("index[%d] = %.2fs; want %.2fs (slowest first)", i, c.DurationSeconds, wantOrder[i])
		}
	}

	if _, ok := f.Get(ids[1]); !ok {
		t.Error("slowest capture not retrievable by id")
	}
	if _, ok := f.Get(ids[0]); ok {
		t.Error("evicted capture still retrievable")
	}
	if _, ok := f.Get(ids[5]); ok {
		t.Error("never-retained capture retrievable")
	}
}

func TestFlightRecorderTieKeepsEarlier(t *testing.T) {
	f := NewFlightRecorder(1)
	first, _ := f.Offer(Capture{DurationSeconds: 0.2})
	if _, kept := f.Offer(Capture{DurationSeconds: 0.2}); kept {
		t.Error("equal-duration capture displaced the earlier one")
	}
	if idx := f.Index(); len(idx) != 1 || idx[0].ID != first {
		t.Errorf("index %+v; want only the first capture", idx)
	}
}

func TestDebugSlowestEndpoints(t *testing.T) {
	f := NewFlightRecorder(4)
	h, _, _ := newTestHandler(t, Options{Recorder: f})

	tr := obs.NewTracer()
	ctx := obs.WithTracer(t.Context(), tr)
	sp := obs.StartSpanCtx(ctx, "serve", "plan/mlp")
	sp.End()
	id, kept := f.Offer(Capture{
		Endpoint:        "/v1/plan",
		Status:          200,
		Start:           time.Now(),
		DurationSeconds: 0.25,
		Tag:             "smoke-a",
		Request:         json.RawMessage(`{"model":"mlp","batch":64,"strategy":"accpar"}`),
		DroppedEvents:   tr.Dropped(),
		TraceEvents:     tr.Events(),
		Audit:           json.RawMessage(`{"totals":{"cold":1}}`),
	})
	if !kept {
		t.Fatal("first capture not retained")
	}

	res, body := get(t, h, "/debug/slowest")
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slowest status %d", res.StatusCode)
	}
	var idx slowestDoc
	if err := json.Unmarshal([]byte(body), &idx); err != nil {
		t.Fatalf("index does not parse: %v", err)
	}
	if idx.Seen != 1 || idx.Cap != 4 || len(idx.Captures) != 1 {
		t.Fatalf("index doc %+v; want seen=1 cap=4 one capture", idx)
	}
	c := idx.Captures[0]
	if c.ID != id || c.Tag != "smoke-a" || c.Events != 2 {
		t.Errorf("index capture %+v; want id=%s tag=smoke-a events=2", c, id)
	}
	if strings.Contains(body, "traceEvents") {
		t.Error("index leaks trace events; they belong to the detail route")
	}

	res, body = get(t, h, "/debug/slowest/"+id)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/debug/slowest/%s status %d", id, res.StatusCode)
	}
	var doc struct {
		TraceEvents []obs.Event     `json:"traceEvents"`
		Capture     Capture         `json:"accparCapture"`
		Audit       json.RawMessage `json:"accparAudit"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("capture does not parse: %v", err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[0].Name != "plan/mlp" {
		t.Errorf("capture trace %+v; want the request's two span events", doc.TraceEvents)
	}
	if doc.Capture.Endpoint != "/v1/plan" || !strings.Contains(string(doc.Capture.Request), `"mlp"`) {
		t.Errorf("capture metadata %+v", doc.Capture)
	}
	if !strings.Contains(string(doc.Audit), `"cold"`) {
		t.Errorf("capture audit %s; want the embedded report", doc.Audit)
	}

	if res, _ := get(t, h, "/debug/slowest/r999"); res.StatusCode != http.StatusNotFound {
		t.Errorf("unknown capture status %d; want 404", res.StatusCode)
	}

	bare, _, _ := newTestHandler(t, Options{})
	if res, _ := get(t, bare, "/debug/slowest"); res.StatusCode != http.StatusNotFound {
		t.Errorf("recorder-less /debug/slowest status %d; want 404", res.StatusCode)
	}
}
