package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"accpar/internal/obs"
)

// stubServe imitates accpar-serve's overload behaviour: at most cap
// concurrent requests, everything beyond answers 429 with Retry-After.
func stubServe(capacity int64) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	var inflight, peak atomic.Int64
	var served, shed atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		if cur > capacity {
			shed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded", http.StatusTooManyRequests)
			return
		}
		served.Add(1)
		time.Sleep(2 * time.Millisecond)
		w.Write([]byte(`{"ok":true}`))
	})
	return httptest.NewServer(h), &served, &shed
}

func TestRunLoadClosedLoop(t *testing.T) {
	ts, served, _ := stubServe(1 << 30) // never sheds
	defer ts.Close()
	rep, err := runLoad(config{
		URL: ts.URL, Mode: "closed", Concurrency: 4,
		Duration: 300 * time.Millisecond, Mix: "plan=8,compare=1,resilience=1",
		Model: "lenet", Batch: 32, V2: 2, V3: 2, Levels: 4,
		ClientTimeout: 5 * time.Second, MaxRetries: 2, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Totals.Sent == 0 || rep.Totals.OK == 0 {
		t.Fatalf("no traffic: %+v", rep.Totals)
	}
	if rep.Totals.OK != served.Load() {
		t.Errorf("report ok=%d, stub served %d", rep.Totals.OK, served.Load())
	}
	if rep.Totals.Server5xx != 0 {
		t.Errorf("unexpected 5xx: %d", rep.Totals.Server5xx)
	}
	if rep.Totals.ThroughputRPS <= 0 {
		t.Errorf("throughput %g, want > 0", rep.Totals.ThroughputRPS)
	}
	ep, ok := rep.Endpoints["plan"]
	if !ok {
		t.Fatal("report missing plan endpoint")
	}
	if ep.Latency.Count == 0 || ep.Latency.P95Seconds <= 0 {
		t.Errorf("plan latency histogram empty: %+v", ep.Latency)
	}
}

func TestRunLoadObservesShedding(t *testing.T) {
	ts, _, shed := stubServe(1)
	defer ts.Close()
	rep, err := runLoad(config{
		URL: ts.URL, Mode: "closed", Concurrency: 8,
		Duration: 300 * time.Millisecond, Mix: "plan=1",
		Model: "lenet", Batch: 32, V2: 2, V3: 2, Levels: 4,
		ClientTimeout: 5 * time.Second, MaxRetries: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if shed.Load() == 0 {
		t.Skip("stub never saturated on this machine")
	}
	if rep.Totals.Shed429 == 0 {
		t.Fatalf("stub shed %d but report counted none", shed.Load())
	}
	if rep.Totals.Retries == 0 {
		t.Error("429s drew no retries")
	}
	if rep.Totals.ShedRate <= 0 || rep.Totals.ShedRate >= 1 {
		t.Errorf("shed rate %g, want in (0,1)", rep.Totals.ShedRate)
	}
}

func TestRunLoadOpenLoop(t *testing.T) {
	ts, _, _ := stubServe(1 << 30)
	defer ts.Close()
	rep, err := runLoad(config{
		URL: ts.URL, Mode: "open", Rate: 200,
		Duration: 250 * time.Millisecond, Mix: "plan=1,compare=1",
		Model: "lenet", Batch: 32, V2: 2, V3: 2, Levels: 4,
		ClientTimeout: 5 * time.Second, MaxRetries: 0, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ~50 arrivals expected; tolerate heavy scheduler noise.
	if rep.Totals.Sent < 10 {
		t.Errorf("open loop sent %d requests, want ≥ 10", rep.Totals.Sent)
	}
	if rep.Totals.Server5xx != 0 {
		t.Errorf("unexpected 5xx: %d", rep.Totals.Server5xx)
	}
}

// TestOpenLoopSendsEveryArrival: open mode offers exactly
// ⌊duration·rate⌋ logical requests in every run, even when its arrival
// loop runs late; a ticker that drops late ticks sends fewer.
func TestOpenLoopSendsEveryArrival(t *testing.T) {
	ts, _, _ := stubServe(1 << 30)
	defer ts.Close()
	cfg := config{
		URL: ts.URL, Mode: "open", Rate: 1000,
		Duration: 200 * time.Millisecond, Mix: "plan=1",
		Model: "lenet", Batch: 32, V2: 2, V3: 2, Levels: 4,
		ClientTimeout: 5 * time.Second, MaxRetries: 0, Seed: 1,
	}
	want := int64(cfg.Duration.Seconds() * cfg.Rate)
	for run := 0; run < 5; run++ {
		rep, err := runLoad(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Totals.Sent != want {
			t.Errorf("run %d sent %d requests, want %d", run, rep.Totals.Sent, want)
		}
	}
}

func TestDistinctBodiesRotate(t *testing.T) {
	reg := obs.NewRegistry()
	eps, err := buildEndpoints(config{
		Mix: "plan=1", Model: "lenet", Batch: 32, V2: 2, V3: 2, Levels: 4,
		Distinct: 3,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	ep := eps[0]
	if len(ep.bodies) != 3 {
		t.Fatalf("got %d body variants, want 3", len(ep.bodies))
	}
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		seen[string(ep.body())] = true
	}
	if len(seen) != 3 {
		t.Errorf("rotation visited %d distinct bodies, want 3", len(seen))
	}
	for b := range seen {
		if !strings.Contains(b, `"tag":"lg-`) {
			t.Errorf("variant missing tag: %s", b)
		}
	}
	// Without -distinct the body carries no tag and stays singular.
	plain, err := buildEndpoints(config{
		Mix: "plan=1", Model: "lenet", Batch: 32, V2: 2, V3: 2, Levels: 4,
	}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if n := len(plain[0].bodies); n != 1 {
		t.Errorf("got %d bodies without -distinct, want 1", n)
	}
	if strings.Contains(string(plain[0].body()), "tag") {
		t.Errorf("untagged body grew a tag: %s", plain[0].body())
	}
}

func TestRunLoadConfigErrors(t *testing.T) {
	bad := []config{
		{Mode: "sideways", Duration: time.Second},
		{Mode: "closed", Concurrency: 0, Duration: time.Second},
		{Mode: "open", Rate: 0, Duration: time.Second},
		{Mode: "closed", Concurrency: 1, Duration: 0},
		{Mode: "closed", Concurrency: 1, Duration: time.Second, Mix: "teleport=1"},
		{Mode: "closed", Concurrency: 1, Duration: time.Second, Mix: "plan=x"},
		{Mode: "closed", Concurrency: 1, Duration: time.Second, Mix: "plan=0"},
	}
	for _, cfg := range bad {
		if _, err := runLoad(cfg); err == nil {
			t.Errorf("config %+v: expected error", cfg)
		}
	}
}

func TestBackoffHonoursRetryAfter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if d := backoffDelay(0, "1", rng); d < time.Second {
			t.Fatalf("attempt 0 with Retry-After 1: delay %v below the hint", d)
		}
	}
	// Without a hint the first-attempt delay stays in the jittered
	// 25–100ms band.
	for i := 0; i < 100; i++ {
		d := backoffDelay(0, "", rng)
		if d < 25*time.Millisecond || d > 100*time.Millisecond {
			t.Fatalf("attempt 0 delay %v outside jitter band", d)
		}
	}
	// The exponential ramp is capped.
	if d := backoffDelay(30, "", rng); d > 8*time.Second {
		t.Fatalf("capped delay %v too large", d)
	}
}
