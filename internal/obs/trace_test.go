package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
)

func TestSpanEmitsPairedAsyncEvents(t *testing.T) {
	tr := NewTracer()
	AttachTracer(tr)
	defer DetachTracer(tr)

	sp := StartSpanCtx(context.Background(), "planner", "partition")
	sp.End()

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events; want 2", len(events))
	}
	b, e := events[0], events[1]
	if b.Ph != "b" || e.Ph != "e" {
		t.Errorf("phases %q,%q; want b,e", b.Ph, e.Ph)
	}
	if b.ID == "" || b.ID != e.ID {
		t.Errorf("ids %q,%q; want matching non-empty", b.ID, e.ID)
	}
	if b.Name != "partition" || b.Cat != "planner" {
		t.Errorf("event %+v", b)
	}
	if e.Ts < b.Ts {
		t.Errorf("span ends (%g) before it begins (%g)", e.Ts, b.Ts)
	}
}

func TestSpanDisabledIsInert(t *testing.T) {
	sp := StartSpanCtx(context.Background(), "planner", "nope")
	sp.End() // must not panic, must not record anywhere
	if Tracing() {
		t.Error("Tracing() true with no tracer attached")
	}
}

func TestConcurrentSpansGetDistinctIDs(t *testing.T) {
	tr := NewTracer()
	AttachTracer(tr)
	defer DetachTracer(tr)
	const n = 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := StartSpanCtx(context.Background(), "c", "s")
			sp.End()
		}()
	}
	wg.Wait()
	events := tr.Events()
	if len(events) != 2*n {
		t.Fatalf("got %d events; want %d", len(events), 2*n)
	}
	begins := map[string]bool{}
	for _, e := range events {
		if e.Ph == "b" {
			if begins[e.ID] {
				t.Fatalf("duplicate span id %s", e.ID)
			}
			begins[e.ID] = true
		}
	}
	if len(begins) != n {
		t.Fatalf("%d distinct span ids; want %d", len(begins), n)
	}
}

func TestScopedTracersIsolateConcurrentRequests(t *testing.T) {
	const n = 8
	tracers := make([]*Tracer, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		tracers[i] = NewTracer()
		ctx := WithTracer(context.Background(), tracers[i])
		wg.Add(1)
		go func(ctx context.Context) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				sp := StartSpanCtx(ctx, "req", "work")
				sp.End()
			}
		}(ctx)
	}
	wg.Wait()
	for i, tr := range tracers {
		events := tr.Events()
		if len(events) != 20 {
			t.Errorf("tracer %d has %d events; want 20 (no cross-request bleed)", i, len(events))
		}
	}
}

func TestStartSpanCtxFansOutToAllSinks(t *testing.T) {
	cli := NewTracer()
	window := NewTracer()
	scoped := NewTracer()
	AttachTracer(cli)
	defer DetachTracer(cli)
	AttachTracer(window)
	defer DetachTracer(window)

	ctx := WithTracer(context.Background(), scoped)
	sp := StartSpanCtx(ctx, "planner", "plan")
	sp.End()

	for _, tc := range []struct {
		name string
		tr   *Tracer
	}{{"cli", cli}, {"window", window}, {"scoped", scoped}} {
		if got := len(tc.tr.Events()); got != 2 {
			t.Errorf("%s tracer has %d events; want 2", tc.name, got)
		}
	}

	// A tracer that is both context-scoped and attached records the span
	// exactly once.
	AttachTracer(scoped)
	defer DetachTracer(scoped)
	sp = StartSpanCtx(ctx, "planner", "plan")
	sp.End()
	if got := len(scoped.Events()); got != 4 {
		t.Errorf("deduped tracer has %d events; want 4", got)
	}
}

func TestAttachedWindowsCaptureGlobalPathSpans(t *testing.T) {
	ctx := context.Background()
	w1, w2 := NewTracer(), NewTracer()
	AttachTracer(w1)
	if !Tracing() {
		t.Fatal("Tracing() false with a window attached")
	}
	sp := StartSpanCtx(ctx, "cap", "one-window")
	sp.End()
	AttachTracer(w2)
	sp = StartSpanCtx(ctx, "cap", "two-windows")
	sp.End()
	DetachTracer(w1)
	sp = StartSpanCtx(ctx, "cap", "after-detach")
	sp.End()
	DetachTracer(w2)
	if Tracing() {
		t.Fatal("Tracing() true after all windows detached")
	}

	if got := len(w1.Events()); got != 4 {
		t.Errorf("window 1 has %d events; want 4 (two spans)", got)
	}
	if got := len(w2.Events()); got != 4 {
		t.Errorf("window 2 has %d events; want 4 (two spans)", got)
	}
}

func TestStartSpanCtxNilContext(t *testing.T) {
	sp := StartSpanCtx(nil, "x", "y") //nolint:staticcheck // nil ctx is part of the contract
	sp.End()
	if TracingCtx(nil) {
		t.Error("TracingCtx(nil) true with no sinks")
	}
	tr := NewTracer()
	ctx := WithTracer(context.Background(), tr)
	if !TracingCtx(ctx) {
		t.Error("TracingCtx false with a context-scoped tracer")
	}
	if TracerFrom(ctx) != tr {
		t.Error("TracerFrom did not return the scoped tracer")
	}
}

func TestBoundedTracerDropsAndCounts(t *testing.T) {
	tr := NewBoundedTracer(3)
	for i := 0; i < 5; i++ {
		tr.Append(Event{Name: "e", Ph: "X"})
	}
	if got := tr.Len(); got != 3 {
		t.Errorf("bounded tracer holds %d events; want 3", got)
	}
	if got := tr.Dropped(); got != 2 {
		t.Errorf("Dropped() = %d; want 2", got)
	}
	if got := NewTracer().Dropped(); got != 0 {
		t.Errorf("unbounded tracer Dropped() = %d; want 0", got)
	}
}

func TestWriteTraceJSONDocument(t *testing.T) {
	tr := NewTracer()
	tr.Append(
		ProcessNameEvent(PidSim, "simulator"),
		ThreadNameEvent(PidSim, 0, "group0 compute"),
		Event{Name: "fwd/conv1/m0", Cat: "sim", Ph: "X", Ts: 0, Dur: 12.5, Pid: PidSim, Tid: 0},
	)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace document does not parse: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit %q; want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events; want 3", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0]["ph"] != "M" || doc.TraceEvents[2]["ph"] != "X" {
		t.Errorf("unexpected phases in %v", doc.TraceEvents)
	}

	// An empty tracer still renders a valid, loadable document.
	buf.Reset()
	if err := WriteTraceJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace document does not parse: %v", err)
	}
}
