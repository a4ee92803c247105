package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"accpar/internal/obs"
)

// config is one load run's full parameter set; main fills it from flags
// and tests fill it directly.
type config struct {
	URL           string
	Mode          string // "closed" or "open"
	Concurrency   int
	Rate          float64
	Duration      time.Duration
	Mix           string
	Model         string
	Batch         int
	V2, V3        int
	Levels        int
	TimeoutMs     int
	ClientTimeout time.Duration
	MaxRetries    int
	Seed          int64
	Distinct      int
	JSONOut       string
}

// endpoint is one /v1 target with its request bodies and mix weight.
// With -distinct > 1 the bodies differ only in their opaque tag, so the
// server treats each as its own coalescing flight; requests rotate
// through them round-robin.
type endpoint struct {
	name   string
	path   string
	bodies [][]byte
	next   atomic.Int64
	weight int
	stats  *endpointStats
}

// body returns the next request body in rotation.
func (ep *endpoint) body() []byte {
	if len(ep.bodies) == 1 {
		return ep.bodies[0]
	}
	return ep.bodies[int(ep.next.Add(1))%len(ep.bodies)]
}

// endpointStats is one endpoint's outcome tally. The latency timer only
// observes completed attempts that got an HTTP status back; transport
// errors have no meaningful latency to record.
type endpointStats struct {
	timer                  *obs.Timer
	sent, ok               atomic.Int64
	shed                   atomic.Int64 // 429s
	client4xx, server5xx   atomic.Int64 // 4xx other than 429; any 5xx
	transportErrs, retries atomic.Int64
	giveUps                atomic.Int64 // requests dropped after the retry budget
}

// endpointReport is the JSON form of one endpoint's results.
type endpointReport struct {
	Sent            int64         `json:"sent"`
	OK              int64         `json:"ok"`
	Shed429         int64         `json:"shed_429"`
	Client4xx       int64         `json:"client_4xx"`
	Server5xx       int64         `json:"server_5xx"`
	TransportErrors int64         `json:"transport_errors"`
	Retries         int64         `json:"retries"`
	GiveUps         int64         `json:"give_ups"`
	Latency         obs.HistStats `json:"latency"`
}

func (s *endpointStats) report() endpointReport {
	return endpointReport{
		Sent:            s.sent.Load(),
		OK:              s.ok.Load(),
		Shed429:         s.shed.Load(),
		Client4xx:       s.client4xx.Load(),
		Server5xx:       s.server5xx.Load(),
		TransportErrors: s.transportErrs.Load(),
		Retries:         s.retries.Load(),
		GiveUps:         s.giveUps.Load(),
		Latency:         s.timer.HistStats(),
	}
}

// report is the BENCH_SERVE.json document.
type report struct {
	Config struct {
		URL         string  `json:"url"`
		Mode        string  `json:"mode"`
		Concurrency int     `json:"concurrency,omitempty"`
		Rate        float64 `json:"rate_rps,omitempty"`
		DurationSec float64 `json:"duration_seconds"`
		Mix         string  `json:"mix"`
		Model       string  `json:"model"`
		Batch       int     `json:"batch"`
		TimeoutMs   int     `json:"timeout_ms,omitempty"`
		MaxRetries  int     `json:"max_retries"`
		Seed        int64   `json:"seed"`
		Distinct    int     `json:"distinct,omitempty"`
	} `json:"config"`
	ElapsedSeconds float64                   `json:"elapsed_seconds"`
	Endpoints      map[string]endpointReport `json:"endpoints"`
	Totals         struct {
		Sent            int64   `json:"sent"`
		OK              int64   `json:"ok"`
		Shed429         int64   `json:"shed_429"`
		Client4xx       int64   `json:"client_4xx"`
		Server5xx       int64   `json:"server_5xx"`
		TransportErrors int64   `json:"transport_errors"`
		Retries         int64   `json:"retries"`
		ThroughputRPS   float64 `json:"throughput_rps"`
		ShedRate        float64 `json:"shed_rate"`
	} `json:"totals"`
}

func (r *report) writeFile(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// summary renders the human table.
func (r *report) summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "accpar-loadgen: %s for %.1fs against %s (mix %s)\n\n",
		r.Config.Mode, r.ElapsedSeconds, r.Config.URL, r.Config.Mix)
	fmt.Fprintf(&b, "%-12s %8s %8s %8s %8s %8s %10s %10s %10s\n",
		"endpoint", "sent", "ok", "429", "5xx", "retries", "p50", "p95", "p99")
	names := make([]string, 0, len(r.Endpoints))
	for name := range r.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := r.Endpoints[name]
		fmt.Fprintf(&b, "%-12s %8d %8d %8d %8d %8d %9.1fms %9.1fms %9.1fms\n",
			name, ep.Sent, ep.OK, ep.Shed429, ep.Server5xx, ep.Retries,
			1e3*ep.Latency.P50Seconds, 1e3*ep.Latency.P95Seconds, 1e3*ep.Latency.P99Seconds)
	}
	t := r.Totals
	fmt.Fprintf(&b, "\nthroughput %.1f ok/s · shed rate %.1f%% · %d transport errors · %d server errors\n",
		t.ThroughputRPS, 100*t.ShedRate, t.TransportErrors, t.Server5xx)
	return b.String()
}

// buildEndpoints materialises the mix into request targets. The latency
// timers live in a private registry so repeated runs in one process
// (tests) never collide with the process-wide registry or each other.
func buildEndpoints(cfg config, reg *obs.Registry) ([]*endpoint, error) {
	base := map[string]any{
		"model": cfg.Model, "batch": cfg.Batch,
		"v2": cfg.V2, "v3": cfg.V3, "levels": cfg.Levels,
	}
	if cfg.TimeoutMs > 0 {
		base["timeout_ms"] = cfg.TimeoutMs
	}
	body := func(extra map[string]any) []byte {
		m := make(map[string]any, len(base)+len(extra))
		for k, v := range base {
			m[k] = v
		}
		for k, v := range extra {
			m[k] = v
		}
		b, err := json.Marshal(m)
		if err != nil {
			panic(err) // static key/value types; cannot fail
		}
		return b
	}
	// With -distinct > 1 each endpoint gets that many body variants
	// differing only in their opaque tag. The server coalesces requests
	// by canonical body, so identical bodies measure the coalescer and
	// tagged ones measure admission control under genuine concurrency.
	variants := func(extra map[string]any) [][]byte {
		if cfg.Distinct <= 1 {
			return [][]byte{body(extra)}
		}
		out := make([][]byte, cfg.Distinct)
		for i := range out {
			m := map[string]any{"tag": fmt.Sprintf("lg-%d", i)}
			for k, v := range extra {
				m[k] = v
			}
			out[i] = body(m)
		}
		return out
	}
	bodies := map[string]struct {
		path   string
		bodies [][]byte
	}{
		"plan":       {"/v1/plan", variants(nil)},
		"compare":    {"/v1/compare", variants(nil)},
		"resilience": {"/v1/resilience", variants(map[string]any{"faults": "slowdown:0=2.0", "seed": 7})},
	}
	var eps []*endpoint
	for _, part := range strings.Split(cfg.Mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, ok := strings.Cut(part, "=")
		weight := 1
		if ok {
			w, err := strconv.Atoi(weightStr)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("bad mix weight %q", part)
			}
			weight = w
		}
		spec, known := bodies[name]
		if !known {
			return nil, fmt.Errorf("unknown mix endpoint %q (want plan, compare, resilience)", name)
		}
		if weight == 0 {
			continue
		}
		eps = append(eps, &endpoint{
			name: name, path: spec.path, bodies: spec.bodies, weight: weight,
			stats: &endpointStats{timer: reg.NewTimer("loadgen." + name + ".seconds")},
		})
	}
	if len(eps) == 0 {
		return nil, fmt.Errorf("empty mix %q", cfg.Mix)
	}
	return eps, nil
}

// pick selects an endpoint by mix weight.
func pick(eps []*endpoint, rng *rand.Rand) *endpoint {
	total := 0
	for _, ep := range eps {
		total += ep.weight
	}
	n := rng.Intn(total)
	for _, ep := range eps {
		if n -= ep.weight; n < 0 {
			return ep
		}
	}
	return eps[len(eps)-1]
}

// backoffDelay computes the attempt's retry delay: exponential from
// 50ms with ±50% jitter, floored by the server's Retry-After hint —
// honouring the hint is what keeps a retrying fleet from synchronising
// into waves.
func backoffDelay(attempt int, retryAfter string, rng *rand.Rand) time.Duration {
	d := 50 * time.Millisecond << uint(attempt)
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	d = d/2 + time.Duration(rng.Int63n(int64(d))) // ±50% jitter
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil {
		if hint := time.Duration(secs) * time.Second; hint > d {
			d = hint
		}
	}
	return d
}

// fire issues one logical request: an attempt plus its retry budget for
// 429s and transport errors. deadline bounds the whole exchange — a
// retry never sleeps past the end of the run.
func fire(client *http.Client, cfg config, ep *endpoint, rng *rand.Rand, deadline time.Time) {
	ep.stats.sent.Add(1)
	for attempt := 0; ; attempt++ {
		start := time.Now()
		resp, err := client.Post(cfg.URL+ep.path, "application/json", bytes.NewReader(ep.body()))
		if err != nil {
			ep.stats.transportErrs.Add(1)
			if attempt >= cfg.MaxRetries || time.Now().After(deadline) {
				ep.stats.giveUps.Add(1)
				return
			}
			ep.stats.retries.Add(1)
			time.Sleep(backoffDelay(attempt, "", rng))
			continue
		}
		retryAfter := resp.Header.Get("Retry-After")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		ep.stats.timer.Observe(time.Since(start))
		switch {
		case resp.StatusCode < 300:
			ep.stats.ok.Add(1)
			return
		case resp.StatusCode == http.StatusTooManyRequests:
			ep.stats.shed.Add(1)
			if attempt >= cfg.MaxRetries || time.Now().After(deadline) {
				ep.stats.giveUps.Add(1)
				return
			}
			ep.stats.retries.Add(1)
			time.Sleep(backoffDelay(attempt, retryAfter, rng))
			continue
		case resp.StatusCode >= 500:
			ep.stats.server5xx.Add(1)
			return
		default:
			ep.stats.client4xx.Add(1)
			return
		}
	}
}

// runLoad executes one load run and aggregates the report.
func runLoad(cfg config) (*report, error) {
	switch cfg.Mode {
	case "closed", "open":
	default:
		return nil, fmt.Errorf("unknown mode %q (want closed or open)", cfg.Mode)
	}
	if cfg.Mode == "closed" && cfg.Concurrency < 1 {
		return nil, fmt.Errorf("closed loop needs -concurrency ≥ 1")
	}
	if cfg.Mode == "open" && cfg.Rate <= 0 {
		return nil, fmt.Errorf("open loop needs -rate > 0")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("need -duration > 0")
	}
	reg := obs.NewRegistry()
	eps, err := buildEndpoints(cfg, reg)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: cfg.ClientTimeout}
	start := time.Now()
	deadline := start.Add(cfg.Duration)

	var wg sync.WaitGroup
	switch cfg.Mode {
	case "closed":
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
				for time.Now().Before(deadline) {
					fire(client, cfg, pick(eps, rng), rng, deadline)
				}
			}(w)
		}
	case "open":
		// Fixed arrival process: arrival i is due at start + i/rate and
		// launches its own goroutine however many are still in flight, so
		// the server slowing down does not slow the offered load. A late
		// loop launches the arrivals it owes at once rather than skipping
		// them, so a run offers exactly ⌊duration·rate⌋ requests.
		arrivals := int(cfg.Duration.Seconds() * cfg.Rate)
		rng := rand.New(rand.NewSource(cfg.Seed))
		for i := 0; i < arrivals; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(float64(i) / cfg.Rate * float64(time.Second)))))
			ep := pick(eps, rng)
			seed := rng.Int63()
			wg.Add(1)
			go func() {
				defer wg.Done()
				fire(client, cfg, ep, rand.New(rand.NewSource(seed)), deadline)
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &report{Endpoints: map[string]endpointReport{}}
	rep.Config.URL = cfg.URL
	rep.Config.Mode = cfg.Mode
	if cfg.Mode == "closed" {
		rep.Config.Concurrency = cfg.Concurrency
	} else {
		rep.Config.Rate = cfg.Rate
	}
	rep.Config.DurationSec = cfg.Duration.Seconds()
	rep.Config.Mix = cfg.Mix
	rep.Config.Model = cfg.Model
	rep.Config.Batch = cfg.Batch
	rep.Config.TimeoutMs = cfg.TimeoutMs
	rep.Config.MaxRetries = cfg.MaxRetries
	rep.Config.Seed = cfg.Seed
	rep.Config.Distinct = cfg.Distinct
	rep.ElapsedSeconds = elapsed.Seconds()
	for _, ep := range eps {
		er := ep.stats.report()
		rep.Endpoints[ep.name] = er
		rep.Totals.Sent += er.Sent
		rep.Totals.OK += er.OK
		rep.Totals.Shed429 += er.Shed429
		rep.Totals.Client4xx += er.Client4xx
		rep.Totals.Server5xx += er.Server5xx
		rep.Totals.TransportErrors += er.TransportErrors
		rep.Totals.Retries += er.Retries
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.Totals.ThroughputRPS = float64(rep.Totals.OK) / secs
	}
	if attempts := rep.Totals.OK + rep.Totals.Shed429 + rep.Totals.Client4xx + rep.Totals.Server5xx; attempts > 0 {
		rep.Totals.ShedRate = float64(rep.Totals.Shed429) / float64(attempts)
	}
	return rep, nil
}
