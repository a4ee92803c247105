package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"accpar"
	"accpar/cmd/internal/spec"
	"accpar/internal/admission"
	"accpar/internal/diag"
	"accpar/internal/obs"
)

// serveConfig bundles the robustness knobs: the admission limits in
// front of the planning endpoints, the per-request deadline policy and
// the request-body bound. The zero value selects the defaults.
type serveConfig struct {
	// MaxConcurrent caps concurrently running planning work, in weight
	// units (plan costs 1, compare and resilience cost 2 — they fan out
	// several searches each). ≤ 0 selects 2×GOMAXPROCS.
	MaxConcurrent int64
	// MaxQueue bounds the admission wait queue; beyond it requests are
	// shed with 429. Negative means unbounded (never shed).
	MaxQueue int
	// RetryAfter is the backoff hint sent with 429 responses.
	RetryAfter time.Duration
	// DefaultDeadline bounds each request's planning work when the
	// request carries no timeout_ms of its own; 0 means no deadline.
	DefaultDeadline time.Duration
	// MaxBodyBytes bounds request bodies (413 beyond it); ≤ 0 selects
	// 1 MiB — generous for a workload spec that fits in a tweet.
	MaxBodyBytes int64
	// Slowest sizes the tail-latency flight recorder: the N slowest
	// requests are retained with their traces behind GET /debug/slowest.
	// ≤ 0 selects 16.
	Slowest int
}

// withDefaults fills unset knobs.
func (c serveConfig) withDefaults() serveConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = int64(2 * runtime.GOMAXPROCS(0))
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Admission weights: compare fans out all four strategies and
// resilience runs two searches plus three simulations, so they hold
// twice the weight of a single plan.
const (
	weightPlan       = 1
	weightCompare    = 2
	weightResilience = 2
)

// server holds the shared planning session behind the /v1 endpoints. One
// session (and therefore one plan cache) serves every request, so
// repeated and related requests reuse each other's solved subproblems.
type server struct {
	sess *accpar.Session
	cfg  serveConfig
	adm  *admission.Controller
	coal *coalescer
	// flight is the always-on tail-latency recorder behind /debug/slowest.
	flight *diag.FlightRecorder
	// draining flips when shutdown begins; /readyz turns 503 so load
	// balancers stop routing here while in-flight requests finish.
	draining atomic.Bool
}

func newServer(sess *accpar.Session, cfg serveConfig) *server {
	cfg = cfg.withDefaults()
	return &server{
		sess:   sess,
		cfg:    cfg,
		adm:    admission.NewController(cfg.MaxConcurrent, cfg.MaxQueue, cfg.RetryAfter),
		coal:   newCoalescer(),
		flight: diag.NewFlightRecorder(cfg.Slowest),
	}
}

// routes registers the /v1 planning endpoints. Each handler is wrapped
// inside-out as guard → coalesce → observe → recover: the admission guard
// sheds or queues, the coalescer lets byte-equivalent concurrent requests
// share one execution (followers never enter admission, so a thundering
// herd holds one weight unit and one trace), observe gives each request
// its metrics, its own scoped tracer and its flight-recorder offer, and
// the panic recovery is outermost so a panic anywhere in the stack still
// becomes a 500 instead of a torn connection.
func (s *server) routes(mux *http.ServeMux) {
	wrap := func(name string, weight int64, m *endpointMetrics, h http.HandlerFunc) http.HandlerFunc {
		guarded := s.adm.Guard(weight, m.shed, h)
		return admission.Recover(s.observe("/v1/"+name, m, s.coal.coalesce(name, s.cfg.MaxBodyBytes, guarded)))
	}
	mux.HandleFunc("POST /v1/plan", wrap("plan", weightPlan, planMetrics, s.plan))
	mux.HandleFunc("POST /v1/compare", wrap("compare", weightCompare, compareMetrics, s.compare))
	mux.HandleFunc("POST /v1/resilience", wrap("resilience", weightResilience, resilienceMetrics, s.resilience))
}

// readyChecks are the readiness probes: one, "serving", which fails once
// shutdown has begun and in-flight requests are draining. An empty plan
// cache is a cold start, not unreadiness, so the cache has no probe.
func (s *server) readyChecks() []accpar.DiagCheck {
	return []accpar.DiagCheck{{
		Name: "serving",
		Probe: func() error {
			if s.draining.Load() {
				return fmt.Errorf("draining: shutdown in progress")
			}
			return nil
		},
	}}
}

// endpointMetrics is one endpoint's observability set: a log-bucketed
// latency histogram serve.<name>.seconds, an in-flight gauge
// serve.<name>.inflight and request/error counters. The metrics surface
// on /metrics as serve_<name>_seconds_bucket/_sum/_count etc. Registered
// once at package init — the obs registry rejects duplicate names, so
// per-server registration would panic under tests building several
// servers in one process.
type endpointMetrics struct {
	timer    *obs.Timer
	inflight *obs.Gauge
	requests *obs.Counter
	errors   *obs.Counter
	// shed counts this endpoint's 429s, on top of the aggregate
	// admission.shed counter.
	shed *obs.Counter
}

func newEndpointMetrics(name string) *endpointMetrics {
	obs.SetHelp("serve_"+name+"_seconds", "Latency of POST /v1/"+name+" requests.")
	obs.SetHelp("serve_"+name+"_inflight", "In-flight POST /v1/"+name+" requests.")
	obs.SetHelp("serve_"+name+"_shed", "POST /v1/"+name+" requests shed with 429 under overload.")
	return &endpointMetrics{
		timer:    obs.NewTimer("serve." + name + ".seconds"),
		inflight: obs.NewGauge("serve." + name + ".inflight"),
		requests: obs.NewCounter("serve." + name + ".requests"),
		errors:   obs.NewCounter("serve." + name + ".errors"),
		shed:     obs.NewCounter("serve." + name + ".shed"),
	}
}

var (
	planMetrics       = newEndpointMetrics("plan")
	compareMetrics    = newEndpointMetrics("compare")
	resilienceMetrics = newEndpointMetrics("resilience")
)

// planRequest is the /v1/plan and /v1/compare body: the workload spec
// (package spec) beside the service's own fields. Zero-valued spec fields
// take the spec's defaults, so an empty body plans the paper's
// AlexNet-on-128+128 evaluation point, as the accpar CLI does without
// flags. A reject-mode "memory_limit" whose workload fits no reachable
// plan answers a structured 422 with the tightest-leaf diagnostic.
type planRequest struct {
	spec.Workload
	// TimeoutMs bounds this request's planning work in milliseconds,
	// overriding the server's -default-deadline. An expired deadline
	// aborts the search mid-recursion and answers 504.
	TimeoutMs int `json:"timeout_ms"`
	// Tag is an opaque client label with no effect on planning. Requests
	// are coalesced by canonical body, so distinct tags keep otherwise
	// identical requests on separate flights — load generators use this
	// to measure admission control rather than the coalescer.
	Tag string `json:"tag"`
	// Explain attaches a search-decision audit recorder to the search and
	// embeds its report in the response under "audit". Auditing never
	// changes decisions: the embedded "plan" stays byte-identical to the
	// plain response.
	Explain bool `json:"explain"`
	// Trace embeds the request's scoped Perfetto trace in the response
	// under "trace". Like Explain, it wraps (never alters) the plan.
	Trace bool `json:"trace"`
}

// decode parses the request body into v with the server's body bound
// applied: oversize bodies answer 413, malformed ones — including any
// data after the JSON object — 400. An empty body is valid and leaves v
// zero-valued (all defaults).
func (s *server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		if err = dec.Decode(new(json.RawMessage)); err == nil {
			err = errors.New("data after the JSON object")
		}
	}
	if err != nil && !errors.Is(err, io.EOF) {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", mbe.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// requestCtx derives the handler's planning context: the request's own
// context (canceled when the client disconnects) bounded by the
// request's timeout_ms or, failing that, the server's default deadline.
func (s *server) requestCtx(r *http.Request, timeoutMs int) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if timeoutMs > 0 {
		d = time.Duration(timeoutMs) * time.Millisecond
	}
	if d <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), d)
}

// statusClientClosedRequest is the de-facto (nginx) status for "client
// went away before the response": the connection is gone, so the code
// only reaches logs and metrics — what matters is that it is not a 5xx.
const statusClientClosedRequest = 499

// planStatus maps a planning error to its response status: deadline
// expiry is 504 (the server gave up on time, as promised), client
// disconnect is 499, anything else is an unprocessable workload.
func planStatus(err error) int {
	switch {
	case errors.Is(err, accpar.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, accpar.ErrCanceled):
		return statusClientClosedRequest
	default:
		return http.StatusUnprocessableEntity
	}
}

// plan serves POST /v1/plan: the partition plan as JSON, byte-identical
// to `accpar -json` for the same workload (the response is the
// Plan.AppendJSON document the CLI's Plan.WriteJSON writes, and caching
// never changes decisions). With "explain" or "trace" the plan document
// is embedded verbatim under "plan" with the audit report and scoped
// trace beside it.
func (s *server) plan(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if !s.decode(w, r, &req) {
		return
	}
	req.FillZero()
	captureFrom(r.Context()).note(req.Tag, req.Workload)
	net, arr, err := req.Build()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	_, opt, err := req.Options()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var rec *accpar.AuditRecorder
	if req.Explain {
		rec = accpar.NewAuditRecorder()
		opt.Audit = rec
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	plan, err := s.sess.PartitionWithOptionsCtx(ctx, net, arr, opt, req.Levels)
	if err != nil {
		var nfe *accpar.NoFeasiblePlanError
		if errors.As(err, &nfe) {
			writeInfeasible(w, nfe)
			return
		}
		http.Error(w, err.Error(), planStatus(err))
		return
	}
	if !req.Explain && !req.Trace {
		writePlan(w, plan)
		return
	}
	s.writeWrappedPlan(w, r, &req, plan, rec)
}

// writePlan answers with the plan document. It is encoded in full before
// anything is sent, so an encode failure is a 500 rather than a 200 with
// an empty body.
func writePlan(w http.ResponseWriter, plan *accpar.Plan) {
	body, err := plan.AppendJSON(nil)
	if err != nil {
		obsEncodeErrors.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeBody(w, body)
}

// writeBody sends a complete JSON response body with one write.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if _, err := w.Write(body); err != nil {
		obsEncodeErrors.Inc()
		obs.Log().Warn("serve.plan_write_failed", "err", err.Error())
	}
}

// writeWrappedPlan writes the explain/trace response: the exact bytes
// Plan.WriteJSON produces, embedded under "plan", with the audit report
// and the request's scoped trace beside it. The wrapper is assembled by
// hand because encoding/json compacts embedded RawMessages — and the
// acceptance contract is that the embedded plan is byte-identical to the
// plain response (minus its trailing newline).
func (s *server) writeWrappedPlan(w http.ResponseWriter, r *http.Request, req *planRequest, plan *accpar.Plan, rec *accpar.AuditRecorder) {
	out, err := plan.AppendJSON([]byte("{\n\"plan\": "))
	if err != nil {
		obsEncodeErrors.Inc()
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	out = out[:len(out)-1] // the plan document's trailing newline
	if rec != nil {
		var auditBuf bytes.Buffer
		if err := rec.WriteJSON(&auditBuf); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		audit := bytes.TrimRight(auditBuf.Bytes(), "\n")
		captureFrom(r.Context()).noteAudit(append(json.RawMessage(nil), audit...))
		out = append(out, ",\n\"audit\": "...)
		out = append(out, audit...)
	}
	if req.Trace {
		tr := obs.TracerFrom(r.Context())
		if tr != nil {
			var traceBuf bytes.Buffer
			if err := obs.WriteTraceJSON(&traceBuf, tr.Events()); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			out = append(out, ",\n\"trace\": "...)
			out = append(out, bytes.TrimRight(traceBuf.Bytes(), "\n")...)
		}
	}
	out = append(out, "\n}\n"...)
	writeBody(w, out)
}

// compareRow is one strategy's result in a /v1/compare response.
type compareRow struct {
	Strategy         string  `json:"strategy"`
	TimeSeconds      float64 `json:"time_seconds"`
	SamplesPerSecond float64 `json:"samples_per_second"`
	// Speedup is relative to the DP baseline.
	Speedup float64 `json:"speedup"`
}

// compare serves POST /v1/compare: all four strategies on the workload,
// with times, throughputs and speedups over the DP baseline.
func (s *server) compare(w http.ResponseWriter, r *http.Request) {
	var req planRequest
	if !s.decode(w, r, &req) {
		return
	}
	req.FillZero()
	captureFrom(r.Context()).note(req.Tag, req.Workload)
	net, arr, err := req.Build()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	c, err := s.sess.CompareCtx(ctx, net, arr)
	if err != nil {
		http.Error(w, err.Error(), planStatus(err))
		return
	}
	rows := make([]compareRow, 0, len(accpar.Strategies))
	for _, st := range accpar.Strategies {
		p := c.Plans[st]
		rows = append(rows, compareRow{
			Strategy:         st.String(),
			TimeSeconds:      p.Time(),
			SamplesPerSecond: p.Throughput(),
			Speedup:          c.Speedup(st),
		})
	}
	writeJSON(w, http.StatusOK, struct {
		Model      string       `json:"model"`
		Batch      int          `json:"batch"`
		Array      string       `json:"array"`
		Strategies []compareRow `json:"strategies"`
	}{req.Model, req.Batch, arr.Name, rows})
}

// resilienceRequest is the /v1/resilience body: a plan request with the
// spec's fault-experiment fields.
type resilienceRequest struct {
	planRequest
	spec.Sim
}

// resilience serves POST /v1/resilience: the simulated three-way
// fault-free / stale / replanned experiment on a two-group array.
func (s *server) resilience(w http.ResponseWriter, r *http.Request) {
	var req resilienceRequest
	if !s.decode(w, r, &req) {
		return
	}
	eff := spec.Request{Workload: req.Workload, Sim: req.Sim}
	eff.FillZero()
	captureFrom(r.Context()).note(req.Tag, eff)
	if eff.Faults == "" {
		http.Error(w, "resilience needs a fault scenario (faults)", http.StatusBadRequest)
		return
	}
	net, groups, st, sc, err := eff.Experiment()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ctx, cancel := s.requestCtx(r, req.TimeoutMs)
	defer cancel()
	rep, err := s.sess.ResilienceCtx(ctx, net, groups, st, *sc, accpar.SimConfig{OverlapComm: eff.Overlap})
	if err != nil {
		http.Error(w, err.Error(), planStatus(err))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Faults           string    `json:"faults"`
		Seed             int64     `json:"seed"`
		Machines         [2]string `json:"machines"`
		FaultFreeSeconds float64   `json:"fault_free_seconds"`
		StaleSeconds     float64   `json:"stale_seconds"`
		ReplannedSeconds float64   `json:"replanned_seconds"`
		Impact           float64   `json:"impact"`
		Recovery         float64   `json:"recovery"`
		Adopted          bool      `json:"adopted"`
		Retries          int       `json:"retries"`
		// The incremental-replanning economics of this request's two
		// partition searches: subproblems served from the memo or the
		// session's plan cache, cache entries their trims evicted,
		// subproblems re-solved, and planning wall-clock seconds.
		ReplanIncrementalHits int64   `json:"replan_incremental_hits"`
		ReplanInvalidated     int64   `json:"replan_invalidated"`
		ReplanExpanded        int64   `json:"replan_expanded"`
		ReplanSeconds         float64 `json:"replan_seconds"`
	}{
		Faults:           rep.Scenario.String(),
		Seed:             rep.Scenario.Seed,
		Machines:         rep.MachineNames,
		FaultFreeSeconds: rep.FaultFree.Time,
		StaleSeconds:     rep.Stale.Time,
		ReplannedSeconds: rep.Replanned.Time,
		Impact:           rep.Impact(),
		Recovery:         rep.Recovery(),
		Adopted:          rep.Adopted,
		Retries:          rep.Stale.Retries[0] + rep.Stale.Retries[1],

		ReplanIncrementalHits: rep.Replan.IncrementalHits,
		ReplanInvalidated:     rep.Replan.Invalidated,
		ReplanExpanded:        rep.Replan.Expanded,
		ReplanSeconds:         rep.Replan.Seconds,
	})
}

// obsEncodeErrors counts response bodies that failed to encode or
// write — almost always a client that hung up mid-response, surfaced as
// a counter so a spike is visible without grepping logs.
var obsEncodeErrors = obs.NewCounter("serve.encode_errors")

func init() {
	obs.SetHelp("serve_encode_errors", "Response-body encode/write failures (client hangups mid-response).")
}

// writeInfeasible answers a memory-infeasible planning request: 422 with
// a structured body carrying the tightest-leaf diagnostic, so clients can
// size fleets from the response instead of parsing an error string.
func writeInfeasible(w http.ResponseWriter, nfe *accpar.NoFeasiblePlanError) {
	type tightest struct {
		Group          string `json:"group"`
		ResidencyBytes int64  `json:"residency_bytes"`
		CapacityBytes  int64  `json:"capacity_bytes"`
	}
	writeJSON(w, http.StatusUnprocessableEntity, struct {
		Error    string   `json:"error"`
		Tightest tightest `json:"tightest"`
	}{nfe.Error(), tightest{nfe.TightestGroup, nfe.ResidencyBytes, nfe.CapacityBytes}})
}

// writeJSON answers code with v as indented JSON, counting and logging
// failures.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		obsEncodeErrors.Inc()
		obs.Log().Warn("serve.response_write_failed", "err", err.Error())
	}
}
