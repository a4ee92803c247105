package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"accpar"
	"accpar/internal/diag"
)

// newTestMux builds the full serving mux (v1 + diagnostics) around a
// fresh session, as run() does.
func newTestMux(t *testing.T) (*server, *http.ServeMux) {
	t.Helper()
	srv := newServer(accpar.NewSession(0), serveConfig{})
	mux := http.NewServeMux()
	srv.routes(mux)
	diag.NewHandler(diag.Options{Ready: srv.readyChecks(), Recorder: srv.flight}).Routes(mux)
	return srv, mux
}

func post(t *testing.T, mux *http.ServeMux, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w
}

func get(t *testing.T, mux *http.ServeMux, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	return w
}

// TestPlanByteIdenticalToLibrary asserts the acceptance criterion: the
// /v1/plan response is byte-for-byte the document the library (and the
// accpar CLI's -json path) writes for the same workload.
func TestPlanByteIdenticalToLibrary(t *testing.T) {
	_, mux := newTestMux(t)
	w := post(t, mux, "/v1/plan", `{"model":"lenet","batch":32,"v2":4,"v3":4,"levels":8}`)
	if w.Code != http.StatusOK {
		t.Fatalf("plan: %d: %s", w.Code, w.Body)
	}

	net, err := accpar.BuildModel("lenet", 32)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := accpar.HeterogeneousArray(
		accpar.ArrayGroup{Spec: accpar.TPUv2(), Count: 4},
		accpar.ArrayGroup{Spec: accpar.TPUv3(), Count: 4})
	if err != nil {
		t.Fatal(err)
	}
	opt := accpar.StrategyAccPar.Options()
	opt.Optimizer, err = accpar.ParseOptimizer("sgd")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := accpar.PartitionWithOptions(net, arr, opt, 8)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := plan.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Errorf("serve plan differs from library plan:\nserve: %.200s\nwant:  %.200s", w.Body, want.String())
	}
}

// TestPlanDefaultsMirrorCLI asserts an empty body selects the CLI's
// default workload rather than erroring.
func TestPlanDefaultsMirrorCLI(t *testing.T) {
	var req planRequest
	req.defaults()
	want := planRequest{Model: "alexnet", Batch: 512, V2: 128, V3: 128,
		Strategy: "accpar", Levels: 64, Optimizer: "sgd"}
	if req != want {
		t.Errorf("defaults = %+v, want %+v", req, want)
	}
}

func TestPlanBadInputs(t *testing.T) {
	_, mux := newTestMux(t)
	cases := map[string]string{
		"unknown model":    `{"model":"gpt5"}`,
		"unknown strategy": `{"model":"lenet","batch":32,"strategy":"alpa"}`,
		"unknown optim":    `{"model":"lenet","batch":32,"optimizer":"lion"}`,
		"unknown field":    `{"modell":"lenet"}`,
		"bad json":         `{`,
		"bad fleet":        `{"model":"lenet","batch":32,"fleet":"warp-core:4"}`,
		"negative batch":   `{"model":"lenet","batch":-1,"v2":2,"v3":2}`,
		"oversized v2+v3":  `{"model":"lenet","batch":32,"v2":40000,"v3":40000,"timeout_ms":50}`,
		"oversized fleet":  `{"model":"lenet","fleet":"tpu-v3:4000000","timeout_ms":50}`,
		"oversized sum":    `{"model":"lenet","fleet":"tpu-v2:40000,tpu-v3:40000","timeout_ms":50}`,
		"trailing data":    `{"model":"lenet","batch":32,"v2":2,"v3":2} {}`,
		"negative v2":      `{"model":"lenet","batch":8,"v2":-5,"v3":4}`,
		"negative v3":      `{"model":"lenet","batch":8,"v2":4,"v3":-5}`,
	}
	for name, body := range cases {
		if w := post(t, mux, "/v1/plan", body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: code %d, want 400", name, w.Code)
		}
	}
	// The batch and fleet checks hold on every /v1 endpoint, before any
	// array is built.
	for _, path := range []string{"/v1/compare", "/v1/resilience"} {
		for name, body := range map[string]string{
			"negative batch":  `{"model":"lenet","batch":-1,"v2":2,"v3":2,"faults":"slowdown:0=2"}`,
			"oversized v2+v3": `{"model":"lenet","batch":32,"v2":40000,"v3":40000,"faults":"slowdown:0=2","timeout_ms":50}`,
			"oversized v3":    `{"model":"lenet","batch":32,"v2":1,"v3":4000000,"faults":"slowdown:0=2","timeout_ms":50}`,
			"negative v2":     `{"model":"lenet","batch":8,"v2":-5,"v3":4,"faults":"slowdown:1=2"}`,
		} {
			if path == "/v1/compare" {
				body = strings.NewReplacer(`,"faults":"slowdown:0=2"`, "", `,"faults":"slowdown:1=2"`, "").Replace(body)
			}
			if w := post(t, mux, path, body); w.Code != http.StatusBadRequest {
				t.Errorf("%s %s: code %d, want 400: %s", path, name, w.Code, w.Body)
			}
		}
	}
}

// TestPlanInfeasibleReturns422 asserts the memory-constrained contract
// of /v1/plan: a workload that cannot fit any partition under reject
// mode answers 422 with the tightest leaf's residency diagnostics, a
// non-binding constraint leaves the response byte-identical to an
// unconstrained plan, and an unknown mode is a client error.
func TestPlanInfeasibleReturns422(t *testing.T) {
	_, mux := newTestMux(t)
	w := post(t, mux, "/v1/plan",
		`{"model":"vgg16","batch":4096,"fleet":"edge-npu:2","memory_limit":"reject"}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible plan: code %d, want 422: %s", w.Code, w.Body)
	}
	var doc struct {
		Error    string `json:"error"`
		Tightest struct {
			Group          string `json:"group"`
			ResidencyBytes int64  `json:"residency_bytes"`
			CapacityBytes  int64  `json:"capacity_bytes"`
		} `json:"tightest"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Error == "" || doc.Tightest.Group == "" {
		t.Errorf("diagnostic incomplete: %s", w.Body)
	}
	if doc.Tightest.ResidencyBytes <= doc.Tightest.CapacityBytes || doc.Tightest.CapacityBytes <= 0 {
		t.Errorf("tightest leaf not overflowing: %+v", doc.Tightest)
	}

	// Non-binding: reject mode at Table 7 capacities changes nothing.
	free := post(t, mux, "/v1/plan", `{"model":"lenet","batch":32,"v2":4,"v3":4,"levels":8}`)
	constrained := post(t, mux, "/v1/plan",
		`{"model":"lenet","batch":32,"v2":4,"v3":4,"levels":8,"memory_limit":"reject"}`)
	if free.Code != http.StatusOK || constrained.Code != http.StatusOK {
		t.Fatalf("codes %d/%d, want 200/200", free.Code, constrained.Code)
	}
	if !bytes.Equal(free.Body.Bytes(), constrained.Body.Bytes()) {
		t.Errorf("non-binding constraint changed the plan:\nfree: %.200s\nconstrained: %.200s", free.Body, constrained.Body)
	}

	if w := post(t, mux, "/v1/plan", `{"model":"lenet","batch":32,"memory_limit":"strict"}`); w.Code != http.StatusBadRequest {
		t.Errorf("unknown memory mode: code %d, want 400", w.Code)
	}
}

func TestCompare(t *testing.T) {
	_, mux := newTestMux(t)
	w := post(t, mux, "/v1/compare", `{"model":"lenet","batch":32,"v2":4,"v3":4}`)
	if w.Code != http.StatusOK {
		t.Fatalf("compare: %d: %s", w.Code, w.Body)
	}
	var doc struct {
		Strategies []compareRow `json:"strategies"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Strategies) != 4 {
		t.Fatalf("got %d strategies, want 4", len(doc.Strategies))
	}
	for _, row := range doc.Strategies {
		if row.TimeSeconds <= 0 || row.Speedup <= 0 {
			t.Errorf("%s: non-positive time %g or speedup %g", row.Strategy, row.TimeSeconds, row.Speedup)
		}
	}
}

func TestResilience(t *testing.T) {
	_, mux := newTestMux(t)
	w := post(t, mux, "/v1/resilience",
		`{"model":"lenet","batch":32,"v2":4,"v3":4,"faults":"slowdown:0=2.0","seed":7}`)
	if w.Code != http.StatusOK {
		t.Fatalf("resilience: %d: %s", w.Code, w.Body)
	}
	var doc struct {
		FaultFreeSeconds float64 `json:"fault_free_seconds"`
		StaleSeconds     float64 `json:"stale_seconds"`
		ReplannedSeconds float64 `json:"replanned_seconds"`
		Seed             int64   `json:"seed"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.FaultFreeSeconds <= 0 || doc.StaleSeconds < doc.FaultFreeSeconds {
		t.Errorf("implausible times: %+v", doc)
	}
	if doc.ReplannedSeconds > doc.StaleSeconds {
		t.Errorf("replanned %g slower than stale %g", doc.ReplannedSeconds, doc.StaleSeconds)
	}
	if doc.Seed != 7 {
		t.Errorf("seed %d, want 7", doc.Seed)
	}

	// Missing faults is a client error.
	if w := post(t, mux, "/v1/resilience", `{"model":"lenet","batch":32}`); w.Code != http.StatusBadRequest {
		t.Errorf("missing faults: code %d, want 400", w.Code)
	}
}

// TestMetricsAfterRequest asserts a served plan shows up in the mounted
// /metrics endpoint as serve_plan_* histogram and counter series.
func TestMetricsAfterRequest(t *testing.T) {
	_, mux := newTestMux(t)
	if w := post(t, mux, "/v1/plan", `{"model":"lenet","batch":32,"v2":2,"v3":2,"levels":4}`); w.Code != http.StatusOK {
		t.Fatalf("plan: %d: %s", w.Code, w.Body)
	}
	w := get(t, mux, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		"serve_plan_seconds_bucket{le=",
		"serve_plan_seconds_sum",
		"serve_plan_seconds_count",
		"serve_plan_requests",
		"serve_plan_inflight 0",
		"accpar_build_info{",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestReadinessFlip asserts /readyz turns 503 when draining starts.
func TestReadinessFlip(t *testing.T) {
	srv, mux := newTestMux(t)
	if w := get(t, mux, "/readyz"); w.Code != http.StatusOK {
		t.Fatalf("readyz before drain: %d: %s", w.Code, w.Body)
	}
	srv.draining.Store(true)
	w := get(t, mux, "/readyz")
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", w.Code)
	}
	if !strings.Contains(w.Body.String(), "draining") {
		t.Errorf("503 body %q does not name the failing check", w.Body)
	}
	if w := get(t, mux, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz while draining: %d, want 200 (liveness is unaffected)", w.Code)
	}
}
