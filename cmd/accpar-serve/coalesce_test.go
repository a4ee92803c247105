package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"accpar"
	"accpar/internal/obs"
)

func coalescedCount() int64 {
	return obs.Default().Snapshot().Counters["serve.request_coalesced"]
}

// postHandler drives a bare http.HandlerFunc (no mux) with a POST body.
func postHandler(h http.HandlerFunc, body string) *httptest.ResponseRecorder {
	r := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(body))
	w := httptest.NewRecorder()
	h(w, r)
	return w
}

// awaitWaiters polls until n followers block on key's flight.
func awaitWaiters(t *testing.T, c *coalescer, key string, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.waiting(key) < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out: %d of %d followers waiting", c.waiting(key), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalesceSharesFlight: followers arriving while a byte-equivalent
// request is in flight never execute the handler — they share the
// leader's response bytes — and the canonical key erases whitespace and
// JSON key order. Sequenced deterministically: the leader blocks until
// every follower is registered as waiting.
func TestCoalesceSharesFlight(t *testing.T) {
	c := newCoalescer()
	var execs atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	h := c.coalesce("plan", 1<<20, func(w http.ResponseWriter, r *http.Request) {
		if execs.Add(1) == 1 {
			close(entered)
			<-release
		}
		w.Header().Set("X-Flight", "leader")
		fmt.Fprintf(w, "result for %s", r.URL.Path)
	})

	leaderBody := `{"model":"lenet","batch":32}`
	// Byte-different, canonically identical variants.
	variants := []string{
		`{ "batch": 32, "model": "lenet" }`,
		"{\n  \"model\": \"lenet\",\n  \"batch\": 32\n}",
		leaderBody,
	}
	key, ok := canonicalKey("plan", []byte(leaderBody))
	if !ok {
		t.Fatal("canonicalKey rejected valid JSON")
	}
	for _, v := range variants {
		if k, _ := canonicalKey("plan", []byte(v)); k != key {
			t.Fatalf("variant %q canonicalized to a different key", v)
		}
	}
	if k, _ := canonicalKey("compare", []byte(leaderBody)); k == key {
		t.Fatal("endpoint is not part of the canonical key")
	}

	before := coalescedCount()
	var wg sync.WaitGroup
	responses := make([]*httptest.ResponseRecorder, len(variants)+1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		responses[0] = postHandler(h, leaderBody)
	}()
	<-entered
	for i, v := range variants {
		i, v := i, v
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i+1] = postHandler(h, v)
		}()
	}
	awaitWaiters(t, c, key, int64(len(variants)))
	close(release)
	wg.Wait()

	if n := execs.Load(); n != 1 {
		t.Errorf("handler executed %d times, want 1", n)
	}
	if d := coalescedCount() - before; d != int64(len(variants)) {
		t.Errorf("serve.request_coalesced rose by %d, want %d", d, len(variants))
	}
	want := responses[0].Body.Bytes()
	for i, resp := range responses {
		if resp.Code != http.StatusOK {
			t.Errorf("response %d: code %d", i, resp.Code)
		}
		if !bytes.Equal(resp.Body.Bytes(), want) {
			t.Errorf("response %d differs from the leader's", i)
		}
		if got := resp.Header().Get("X-Flight"); got != "leader" {
			t.Errorf("response %d header X-Flight = %q, want \"leader\"", i, got)
		}
	}
}

// TestCoalesceFailureNotShared: a leader's ≥ 400 response is its own
// circumstance (deadline, shed), not a fact about the workload —
// followers of a failed flight re-execute solo.
func TestCoalesceFailureNotShared(t *testing.T) {
	c := newCoalescer()
	var execs atomic.Int64
	entered := make(chan struct{})
	release := make(chan struct{})
	h := c.coalesce("plan", 1<<20, func(w http.ResponseWriter, r *http.Request) {
		if execs.Add(1) == 1 {
			close(entered)
			<-release
			http.Error(w, "deadline", http.StatusGatewayTimeout)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	body := `{"model":"lenet"}`
	key, _ := canonicalKey("plan", []byte(body))

	before := coalescedCount()
	var wg sync.WaitGroup
	var leader, follower *httptest.ResponseRecorder
	wg.Add(1)
	go func() {
		defer wg.Done()
		leader = postHandler(h, body)
	}()
	<-entered
	wg.Add(1)
	go func() {
		defer wg.Done()
		follower = postHandler(h, body)
	}()
	awaitWaiters(t, c, key, 1)
	close(release)
	wg.Wait()

	if leader.Code != http.StatusGatewayTimeout {
		t.Errorf("leader code %d, want 504", leader.Code)
	}
	if follower.Code != http.StatusOK {
		t.Errorf("follower code %d, want 200 from its own execution", follower.Code)
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("handler executed %d times, want 2 (failure re-executes)", n)
	}
	if d := coalescedCount() - before; d != 0 {
		t.Errorf("serve.request_coalesced rose by %d on a failed flight", d)
	}
}

// TestCoalesceNonJSONSolo: bodies that do not parse as JSON are never
// coalesced — the handler owns the error shape — and the handler still
// sees the original bytes.
func TestCoalesceNonJSONSolo(t *testing.T) {
	c := newCoalescer()
	var execs atomic.Int64
	h := c.coalesce("plan", 1<<20, func(w http.ResponseWriter, r *http.Request) {
		execs.Add(1)
		w.WriteHeader(http.StatusBadRequest)
	})
	if _, ok := canonicalKey("plan", []byte(`{not json`)); ok {
		t.Fatal("canonicalKey accepted malformed JSON")
	}
	for i := 0; i < 2; i++ {
		if w := postHandler(h, `{not json`); w.Code != http.StatusBadRequest {
			t.Errorf("request %d: code %d, want 400", i, w.Code)
		}
	}
	if n := execs.Load(); n != 2 {
		t.Errorf("handler executed %d times, want 2 (no coalescing)", n)
	}
}

// TestCoalesceEndToEnd: identical concurrent requests through the real
// mux — admission, instrumentation and all — answer 200 with
// byte-identical plans, and the herd's extra requests are visible on the
// coalesced counter.
func TestCoalesceEndToEnd(t *testing.T) {
	_, mux := newTestMux(t)
	const herd = 6
	body := `{"model":"alexnet","batch":64,"v2":8,"v3":8}`
	var wg sync.WaitGroup
	responses := make([]*httptest.ResponseRecorder, herd)
	for i := 0; i < herd; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			responses[i] = post(t, mux, "/v1/plan", body)
		}()
	}
	wg.Wait()
	want := responses[0].Body.Bytes()
	for i, resp := range responses {
		if resp.Code != http.StatusOK {
			t.Fatalf("request %d: code %d: %s", i, resp.Code, resp.Body)
		}
		if !bytes.Equal(resp.Body.Bytes(), want) {
			t.Errorf("request %d: response differs across the herd", i)
		}
	}
}

// TestObserveCountsFollowersCapturesLeader: through observe, a coalesced
// follower is counted and timed in the endpoint's metrics like any
// request, but only the leader, which ran the handler, is offered to the
// flight recorder.
func TestObserveCountsFollowersCapturesLeader(t *testing.T) {
	srv := newServer(accpar.NewSession(0), serveConfig{})
	entered := make(chan struct{})
	release := make(chan struct{})
	h := srv.observe("/v1/plan", planMetrics, srv.coal.coalesce("plan", 1<<20, func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "{}")
	}))
	const body = `{"model":"lenet","tag":"observe"}`
	key, _ := canonicalKey("plan", []byte(body))
	requests := func() int64 { return obs.Default().Snapshot().Counters["serve.plan.requests"] }
	before := requests()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w := postHandler(h, body); w.Code != http.StatusOK {
				t.Errorf("code %d, want 200", w.Code)
			}
		}()
		if i == 0 {
			<-entered
		}
	}
	awaitWaiters(t, srv.coal, key, 1)
	close(release)
	wg.Wait()
	if d := requests() - before; d != 2 {
		t.Errorf("serve.plan.requests rose by %d, want 2", d)
	}
	if n := srv.flight.Seen(); n != 1 {
		t.Errorf("flight recorder saw %d requests, want 1 (the leader)", n)
	}
}
