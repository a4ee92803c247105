package accpar

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"accpar/internal/dse"
	"accpar/internal/hardware"
)

// TestSessionMetricsAndTrace: session work shows up in the metrics
// snapshot, the trace recorder captures the planner and resilience spans,
// and a recorded session still makes the exact decisions an unobserved
// one does.
func TestSessionMetricsAndTrace(t *testing.T) {
	net, err := BuildModel("alexnet", 32)
	if err != nil {
		t.Fatal(err)
	}
	arr := paperArray(t, 4)

	plain, err := NewSession(0).Partition(net, arr, StrategyAccPar)
	if err != nil {
		t.Fatal(err)
	}
	want := planBytes(t, plain)

	rec := StartTrace()
	sess := NewSession(0)
	before := Metrics()
	traced, err := sess.Partition(net, arr, StrategyAccPar)
	if err != nil {
		t.Fatal(err)
	}
	after := Metrics()
	rec.Stop()

	if got := planBytes(t, traced); !bytes.Equal(got, want) {
		t.Error("plan differs under an attached trace recorder")
	}
	if d := after.Counters["core.subproblems_expanded"] - before.Counters["core.subproblems_expanded"]; d <= 0 {
		t.Errorf("session metrics recorded %d expanded subproblems; want > 0", d)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	sawSpan := false
	for _, e := range doc.TraceEvents {
		if e["ph"] == "b" && e["cat"] == "planner" {
			sawSpan = true
			break
		}
	}
	if !sawSpan {
		t.Error("trace captured no planner spans")
	}
}

// TestSaveMetricsFileFormats: the extension picks the exposition format.
func TestSaveMetricsFileFormats(t *testing.T) {
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "metrics.json")
	if err := SaveMetricsFile(jsonPath); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("JSON metrics do not parse: %v", err)
	}

	txtPath := filepath.Join(dir, "metrics.txt")
	if err := SaveMetricsFile(txtPath); err != nil {
		t.Fatal(err)
	}
	b, err = os.ReadFile(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if len(strings.Fields(line)) < 2 {
			t.Errorf("malformed text metrics line %q", line)
		}
	}
}

// TestWriteMetricsPrometheus: the facade's Prometheus rendering carries
// the process-wide counters and build metadata.
func TestWriteMetricsPrometheus(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMetricsPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{"accpar_build_info{", "go_gomaxprocs", "process_start_time_seconds"} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestServeDiagnostics: the session diagnostics server comes up on a
// free port, reports not-ready on an empty plan cache, flips ready once
// the session has planned, and serves the decision events the work
// emitted.
func TestServeDiagnostics(t *testing.T) {
	sess := NewSession(0)
	srv, err := sess.ServeDiagnostics("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	fetch := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}

	if code, body := fetch("/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "plan-cache") {
		t.Errorf("empty-cache readyz = %d %q; want 503 naming plan-cache", code, body)
	}
	if code, _ := fetch("/healthz"); code != http.StatusOK {
		t.Errorf("healthz = %d; want 200", code)
	}

	net, err := BuildModel("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Partition(net, paperArray(t, 2), StrategyAccPar); err != nil {
		t.Fatal(err)
	}
	if code, body := fetch("/readyz"); code != http.StatusOK {
		t.Errorf("post-plan readyz = %d %q; want 200", code, body)
	}
	if code, body := fetch("/metrics"); code != http.StatusOK || !strings.Contains(body, "core_subproblems_expanded") {
		t.Errorf("metrics = %d; want 200 with planner counters", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestEventsRecorded: replanning emits a core.replan decision event
// retrievable through the facade.
func TestEventsRecorded(t *testing.T) {
	net, err := BuildModel("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	groups := []ArrayGroup{{Spec: TPUv2(), Count: 2}, {Spec: TPUv3(), Count: 2}}
	fl, err := ParseFaults("slowdown:0=2.0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSession(0).Replan(net, groups, StrategyAccPar, &FaultScenario{Seed: 1, Faults: fl}); err != nil {
		t.Fatal(err)
	}
	for _, ev := range Events() {
		if ev.Msg == "core.replan" {
			if _, ok := ev.Attrs["adopted"]; !ok {
				t.Errorf("core.replan event lacks adopted attr: %v", ev.Attrs)
			}
			return
		}
	}
	t.Error("no core.replan event recorded")
}

// TestTraceRecorderStacksSimRuns: resilience through a recorder yields
// timelines for all three simulated runs as distinct process groups.
func TestTraceRecorderStacksSimRuns(t *testing.T) {
	net, err := BuildModel("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	groups := []ArrayGroup{{Spec: TPUv2(), Count: 2}, {Spec: TPUv3(), Count: 2}}
	fl, err := ParseFaults("slowdown:0=2.0")
	if err != nil {
		t.Fatal(err)
	}
	sc := FaultScenario{Seed: 1, Faults: fl}

	rec := StartTrace()
	defer rec.Stop()
	rep, err := NewSession(0).Resilience(net, groups, StrategyAccPar, sc, SimConfig{RecordTimeline: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		label string
		res   *SimResult
	}{{"sim: fault-free", rep.FaultFree}, {"sim: stale", rep.Stale}, {"sim: replanned", rep.Replanned}} {
		if err := rec.AddSimTimeline(r.res, rep.MachineNames, r.label); err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	simPids := map[float64]bool{}
	resSpans := 0
	for _, e := range doc.TraceEvents {
		if e["ph"] == "X" {
			simPids[e["pid"].(float64)] = true
		}
		if e["ph"] == "b" && e["cat"] == "resilience" {
			resSpans++
		}
	}
	if len(simPids) != 3 {
		t.Errorf("%d simulated process groups; want 3", len(simPids))
	}
	if resSpans != 5 {
		t.Errorf("%d resilience phase spans; want 5 (plan ×2, simulate ×3)", resSpans)
	}
}

// TestDSECountersExposed: the design-space-exploration counters ride the
// same registry as every other metric — a sweep's amortization across
// candidate fleets shows up in Metrics as plan-cache hits, and the
// counters are present in the Prometheus exposition. The sweep is
// fault-free, so it runs no replans: every cache hit is a subproblem one
// candidate's search served from another candidate's.
func TestDSECountersExposed(t *testing.T) {
	space := &dse.Space{
		Kinds: []dse.Kind{
			{Name: "tpu-v2", Spec: hardware.TPUv2(), Price: 1.0},
			{Name: "tpu-v3", Spec: hardware.TPUv3(), Price: 2.2},
		},
		Counts:    []int{0, 4},
		Levels:    []int{2, 8},
		NetScales: []float64{1},
	}
	before := Metrics()
	if _, err := dse.Sweep(context.Background(), space, dse.Config{
		Model: "alexnet", Batch: 64, Workers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	after := Metrics()

	if d := after.Counters["plancache.hits"] - before.Counters["plancache.hits"]; d <= 0 {
		t.Errorf("sweep recorded %d plan-cache hits; want > 0", d)
	}
	if _, ok := after.Counters["core.dse_memory_pruned_candidates"]; !ok {
		t.Error("core.dse_memory_pruned_candidates missing from session metrics")
	}

	var buf bytes.Buffer
	if err := WriteMetricsPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{"plancache_hits", "core_dse_memory_pruned_candidates"} {
		if !strings.Contains(body, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestReplanHitsCountServedReplansOnly: core.replan_incremental_hits
// counts the memo reuse of served replans only. A faulted design-space
// sweep replans every candidate that procures the faulted kind on the
// sweep's own cache and leaves the counter unchanged; a Session's
// replans raise it by exactly the hits and stale reuses they report.
func TestReplanHitsCountServedReplansOnly(t *testing.T) {
	hits := func() int64 { return Metrics().Counters["core.replan_incremental_hits"] }
	space := &dse.Space{
		Kinds: []dse.Kind{
			{Name: "tpu-v2", Spec: hardware.TPUv2(), Price: 1.0},
			{Name: "tpu-v3", Spec: hardware.TPUv3(), Price: 2.2},
		},
		Counts:    []int{0, 4, 8},
		Levels:    []int{8},
		NetScales: []float64{1},
	}
	before := hits()
	if _, err := dse.Sweep(context.Background(), space, dse.Config{
		Model: "alexnet", Batch: 64, Fault: "slowdown:0=2.0", Workers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if d := hits() - before; d != 0 {
		t.Errorf("faulted sweep added %d replan hits; want 0", d)
	}

	net, err := BuildModel("lenet", 16)
	if err != nil {
		t.Fatal(err)
	}
	groups := []ArrayGroup{{Spec: TPUv2(), Count: 4}, {Spec: TPUv3(), Count: 4}}
	fl, err := ParseFaults("slowdown:0=2.0")
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(0)
	before = hits()
	var want int64
	for i := 0; i < 2; i++ {
		rep, err := sess.Replan(net, groups, StrategyAccPar, &FaultScenario{Seed: 1, Faults: fl})
		if err != nil {
			t.Fatal(err)
		}
		want += rep.Stats.IncrementalHits + rep.Stats.StaleReused
	}
	if d := hits() - before; d != want || d <= 0 {
		t.Errorf("two session replans added %d replan hits; want %d, above 0", d, want)
	}
}
