package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"accpar/internal/obs"
)

// FuzzPlanRequest drives arbitrary bodies through /v1/plan under a short
// deadline. Whatever the body, the answer is a plan, a client error, or
// the 504 the deadline promises — never another 5xx, and never a
// recovered panic. A v2/v3 fleet with a negative count is never planned.
func FuzzPlanRequest(f *testing.F) {
	for _, body := range []string{
		`{"model":"lenet","batch":-1,"v2":2,"v3":2}`,
		`{"model":"lenet","fleet":"tpu-v3:4000000","timeout_ms":50}`,
		`{"model":"lenet","batch":32,"v2":2,"v3":2} {}`,
		`{"model":"lenet","batch":8,"v2":-5,"v3":4}`,
		`{"model":"lenet","batch":32,"v2":4,"v3":4,"levels":8}`,
		`{"model":"resnet18","batch":64,"fleet":"tpu-v2:4,gpu-class-a:4","strategy":"hypar","memory_limit":"reject","explain":true}`,
		``,
	} {
		f.Add(body)
	}
	_, mux := newTestMuxCfg(f, serveConfig{DefaultDeadline: 50 * time.Millisecond})
	panics := func() int64 { return obs.Default().Snapshot().Counters["serve.panics"] }
	f.Fuzz(func(t *testing.T, body string) {
		// The client deadline also bounds bodies whose timeout_ms
		// overrides the server's.
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest("POST", "/v1/plan", strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		before := panics()
		mux.ServeHTTP(w, req)
		if w.Code >= 500 && w.Code != http.StatusGatewayTimeout {
			t.Fatalf("body %q: code %d: %s", body, w.Code, w.Body)
		}
		if after := panics(); after != before {
			t.Fatalf("body %q: serve.panics moved %d -> %d", body, before, after)
		}
		var fleet struct {
			V2, V3 int
			Fleet  string
		}
		if json.Unmarshal([]byte(body), &fleet) == nil && fleet.Fleet == "" &&
			(fleet.V2 < 0 || fleet.V3 < 0) && w.Code == http.StatusOK {
			t.Fatalf("body %q: negative v2/v3 count planned", body)
		}
	})
}

// FuzzCompareRequest holds /v1/compare to FuzzPlanRequest's contract:
// a client error, a comparison or a 504, never another 5xx or a
// recovered panic, and a v2/v3 fleet with a negative count is never
// compared.
func FuzzCompareRequest(f *testing.F) {
	fuzzEndpoint(f, "/v1/compare", []string{
		`{"model":"lenet","batch":32,"v2":4,"v3":4}`,
		`{"model":"lenet","batch":8,"v2":-5,"v3":4}`,
		`{"model":"lenet","batch":32,"v2":40000,"v3":40000,"timeout_ms":50}`,
		`{"model":"resnet18","batch":64,"fleet":"tpu-v2:4,gpu-class-a:4","strategy":"alpa"}`,
		`{"model":"lenet","batch":32,"v2":2,"v3":2} {}`,
		``,
	})
}

// FuzzResilienceRequest holds /v1/resilience to the same contract: a
// v2/v3 count below zero is never simulated.
func FuzzResilienceRequest(f *testing.F) {
	fuzzEndpoint(f, "/v1/resilience", []string{
		`{"model":"lenet","batch":32,"v2":4,"v3":4,"faults":"slowdown:0=2.0","seed":7}`,
		`{"model":"lenet","batch":8,"v2":-5,"v3":4,"faults":"slowdown:1=2"}`,
		`{"model":"lenet","batch":-1,"v2":2,"v3":2,"faults":"slowdown:0=2"}`,
		`{"model":"lenet","batch":32,"v2":1,"v3":4000000,"faults":"slowdown:0=2","timeout_ms":50}`,
		`{"model":"lenet","batch":8,"v2":2,"v3":0,"faults":"netbw:1=4"}`,
		`{"model":"lenet","fleet":"tpu-v2:4","faults":"loss:1=0.5"}`,
		`{"model":"lenet","batch":8,"v2":2,"v3":2,"faults":"transient:1=0.05@0.001,loss:0=0.25","ckpt":0.1,"overlap":true}`,
		`{"model":"lenet","batch":8,"faults":"meltdown:0=2"}`,
		``,
	})
}

// fuzzEndpoint drives arbitrary bodies through path under a 50 ms
// default deadline and a 200 ms client deadline, and checks
// FuzzPlanRequest's contract on every answer.
func fuzzEndpoint(f *testing.F, path string, seeds []string) {
	for _, body := range seeds {
		f.Add(body)
	}
	_, mux := newTestMuxCfg(f, serveConfig{DefaultDeadline: 50 * time.Millisecond})
	panics := func() int64 { return obs.Default().Snapshot().Counters["serve.panics"] }
	f.Fuzz(func(t *testing.T, body string) {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		req := httptest.NewRequest("POST", path, strings.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		before := panics()
		mux.ServeHTTP(w, req)
		if w.Code >= 500 && w.Code != http.StatusGatewayTimeout {
			t.Fatalf("body %q: code %d: %s", body, w.Code, w.Body)
		}
		if after := panics(); after != before {
			t.Fatalf("body %q: serve.panics moved %d -> %d", body, before, after)
		}
		var fleet struct {
			V2, V3 int
			Fleet  string
		}
		if json.Unmarshal([]byte(body), &fleet) == nil && fleet.Fleet == "" &&
			(fleet.V2 < 0 || fleet.V3 < 0) && w.Code == http.StatusOK {
			t.Fatalf("body %q: negative v2/v3 count answered 200", body)
		}
	})
}
