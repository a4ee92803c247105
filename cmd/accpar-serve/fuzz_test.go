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
