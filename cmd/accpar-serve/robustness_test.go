package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"accpar"
	"accpar/internal/diag"
	"accpar/internal/obs"
)

// newTestMuxCfg is newTestMux with explicit robustness knobs.
func newTestMuxCfg(t testing.TB, cfg serveConfig) (*server, *http.ServeMux) {
	t.Helper()
	srv := newServer(accpar.NewSession(0), cfg)
	mux := http.NewServeMux()
	srv.routes(mux)
	diag.NewHandler(diag.Options{Ready: srv.readyChecks()}).Routes(mux)
	return srv, mux
}

// TestMethodNotAllowed asserts the method-scoped mux patterns answer
// GETs on the planning endpoints with 405, not 404 or a handler run.
func TestMethodNotAllowed(t *testing.T) {
	_, mux := newTestMux(t)
	for _, path := range []string{"/v1/plan", "/v1/compare", "/v1/resilience"} {
		if w := get(t, mux, path); w.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: code %d, want 405", path, w.Code)
		}
	}
}

// TestBodyTooLarge asserts oversize request bodies answer 413 on every
// endpoint, including resilience's separate decode path.
func TestBodyTooLarge(t *testing.T) {
	_, mux := newTestMuxCfg(t, serveConfig{MaxBodyBytes: 128})
	big := `{"model":"lenet","fleet":"` + strings.Repeat("x", 256) + `"}`
	for _, path := range []string{"/v1/plan", "/v1/compare", "/v1/resilience"} {
		if w := post(t, mux, path, big); w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %dB body: code %d, want 413", path, len(big), w.Code)
		}
	}
	// At the bound itself, requests still parse.
	if w := post(t, mux, "/v1/plan", `{"model":"lenet","batch":32,"v2":2,"v3":2,"levels":4}`); w.Code != http.StatusOK {
		t.Errorf("small body: code %d, want 200: %s", w.Code, w.Body)
	}
}

// TestRequestDeadline504 asserts a request-supplied timeout_ms aborts
// the search and answers 504, and that the abort was observed inside
// the search (not just at the HTTP layer).
func TestRequestDeadline504(t *testing.T) {
	_, mux := newTestMux(t)
	expanded := func() int64 {
		return obs.Default().Snapshot().Counters["core.subproblems_expanded"]
	}
	// A two-type fleet splits into identical halves that are solved once,
	// so resnet50 on 128+128 expands only 17 subproblems and can finish
	// inside the 1 ms deadline. Five accelerator types in uneven counts
	// split into distinct halves at every level: 222 subproblems, some
	// 25 ms to plan on two cores, so "the deadline stopped the expansion"
	// is visible with a wide margin in the counter.
	const workload = `"model":"resnet50","batch":256,` +
		`"fleet":"tpu-v2:127,tpu-v3:113,gpu-class-a:97,gpu-class-b:89,edge-npu:83"`
	before := expanded()
	w := post(t, mux, "/v1/plan", `{`+workload+`,"timeout_ms":1}`)
	aborted := expanded() - before
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code %d, want 504: %s", w.Code, w.Body)
	}
	if !strings.Contains(w.Body.String(), "deadline") {
		t.Errorf("504 body %q does not mention the deadline", w.Body)
	}

	// The abort stopped the search, not just the response: the timed-out
	// request expanded fewer subproblems than the same workload costs
	// when left to finish. The full run uses a fresh session — the
	// aborted run's completed subproblems stay cached (by design), which
	// would shrink a same-session rerun and invalidate the comparison.
	_, freshMux := newTestMux(t)
	before = expanded()
	if w := post(t, freshMux, "/v1/plan", `{`+workload+`}`); w.Code != http.StatusOK {
		t.Fatalf("uncanceled run: code %d: %s", w.Code, w.Body)
	}
	full := expanded() - before
	if full == 0 {
		t.Fatal("full search expanded no subproblems; counter wiring broken")
	}
	if aborted >= full {
		t.Errorf("aborted search expanded %d subproblems, full search %d — the deadline did not stop it", aborted, full)
	}
}

// TestDefaultDeadline504 asserts the server-wide -default-deadline
// applies when the request carries no timeout_ms. The deadline is one
// nanosecond, so it has passed before planning starts however fast the
// search runs; a deadline a fast machine can beat makes the test race.
func TestDefaultDeadline504(t *testing.T) {
	_, mux := newTestMuxCfg(t, serveConfig{DefaultDeadline: time.Nanosecond})
	w := post(t, mux, "/v1/compare", `{"model":"vgg16","batch":512,"v2":128,"v3":128}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("code %d, want 504: %s", w.Code, w.Body)
	}
}

// TestClientDisconnectAbortsSearch asserts a canceled request context —
// what a dropped connection surfaces as — aborts planning with the 499
// log status instead of burning the full search.
func TestClientDisconnectAbortsSearch(t *testing.T) {
	_, mux := newTestMux(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequest("POST", "/v1/plan",
		strings.NewReader(`{"model":"vgg16","batch":512,"v2":128,"v3":128}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	mux.ServeHTTP(w, req)
	if w.Code != statusClientClosedRequest {
		t.Fatalf("code %d, want %d", w.Code, statusClientClosedRequest)
	}
}

// TestShedDeterministic saturates the admission semaphore directly and
// asserts the next request sheds with 429 and the Retry-After hint.
func TestShedDeterministic(t *testing.T) {
	srv, mux := newTestMuxCfg(t, serveConfig{MaxConcurrent: 1, MaxQueue: 0, RetryAfter: 3 * time.Second})
	if !srv.adm.Sem().TryAcquire(srv.adm.Sem().Capacity()) {
		t.Fatal("could not saturate the semaphore")
	}
	defer srv.adm.Sem().Release(srv.adm.Sem().Capacity())
	w := post(t, mux, "/v1/plan", `{"model":"lenet","batch":32,"v2":2,"v3":2,"levels":4}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("code %d, want 429: %s", w.Code, w.Body)
	}
	if got := w.Header().Get("Retry-After"); got != "3" {
		t.Errorf("Retry-After = %q, want \"3\"", got)
	}
}

// TestOverloadHammer floods a tightly-limited server with mixed
// endpoints from many goroutines and asserts the overload contract:
// every response is a success or an explicit 429 — never a 5xx, never a
// panic — and the admitted/shed split accounts for every request.
func TestOverloadHammer(t *testing.T) {
	_, mux := newTestMuxCfg(t, serveConfig{MaxConcurrent: 2, MaxQueue: 2, RetryAfter: time.Second})
	panicsBefore := panicCount(t, mux)
	type shot struct {
		path string
		body string
	}
	const n = 36
	shots := make([]shot, 0, n)
	for i := 0; i < n; i++ {
		// Distinct batch sizes defeat the plan cache so every request does
		// real work and the semaphore stays contended.
		batch := 32 + i
		switch i % 3 {
		case 0:
			shots = append(shots, shot{"/v1/plan",
				fmt.Sprintf(`{"model":"lenet","batch":%d,"v2":4,"v3":4,"levels":8}`, batch)})
		case 1:
			shots = append(shots, shot{"/v1/compare",
				fmt.Sprintf(`{"model":"lenet","batch":%d,"v2":4,"v3":4,"levels":8}`, batch)})
		default:
			shots = append(shots, shot{"/v1/resilience",
				fmt.Sprintf(`{"model":"lenet","batch":%d,"v2":4,"v3":4,"faults":"slowdown:0=2.0","seed":7}`, batch)})
		}
	}
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i, sh := range shots {
		wg.Add(1)
		go func(i int, sh shot) {
			defer wg.Done()
			req := httptest.NewRequest("POST", sh.path, strings.NewReader(sh.body))
			w := httptest.NewRecorder()
			mux.ServeHTTP(w, req)
			codes[i] = w.Code
		}(i, sh)
	}
	wg.Wait()

	var ok, shed int
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Errorf("request %d (%s): code %d, want 200 or 429", i, shots[i].path, code)
		}
	}
	if ok == 0 {
		t.Error("hammer produced no successes")
	}
	if ok+shed != n {
		t.Errorf("accounting: %d ok + %d shed != %d requests", ok, shed, n)
	}
	t.Logf("hammer: %d ok, %d shed", ok, shed)

	// The panic counter must not have moved during the hammer: overload
	// is handled, not recovered from. The counter is process-wide, so
	// earlier tests' recovered panics are left out.
	if d := panicCount(t, mux) - panicsBefore; d != 0 {
		t.Errorf("%d panics under overload", d)
	}
}

// panicCount reads the process-wide serve_panics counter from /metrics.
func panicCount(t *testing.T, mux *http.ServeMux) int64 {
	t.Helper()
	for _, line := range strings.Split(get(t, mux, "/metrics").Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "serve_panics "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("serve_panics line %q: %v", line, err)
			}
			return n
		}
	}
	t.Fatal("/metrics has no serve_panics line")
	return 0
}
