package accpar

import (
	"context"
	"io"
	"os"
	"strings"

	"accpar/internal/core"
	"accpar/internal/diag"
	"accpar/internal/obs"
)

// MetricsSnapshot is a point-in-time copy of the process-wide metrics
// registry: planner search counters (subproblems expanded, memo hits,
// bisection iterations), plan-cache hits, misses and
// evictions, and simulator totals (tasks, retries, per-group busy time,
// injected fault events).
type MetricsSnapshot = obs.Snapshot

// Metrics returns the current process-wide metrics snapshot. The registry
// is process-global (cheap atomics updated by every search and
// simulation, whichever Session ran it), so the snapshot covers all work
// since process start; callers scope a report to one run by differencing
// two snapshots.
func Metrics() MetricsSnapshot { return obs.Default().Snapshot() }

// WriteMetricsPrometheus writes the metrics snapshot in Prometheus text
// exposition format v0.0.4 — the rendering behind GET /metrics on the
// diagnostics server.
func WriteMetricsPrometheus(w io.Writer) error { return obs.Default().WritePrometheus(w) }

// EventLog is one structured decision event: replans, plan-cache
// evictions, fault injections.
type EventLog = obs.LogEvent

// Events returns the retained decision events, oldest first. The ring is
// bounded; the diagnostics server serves the same records at
// GET /debug/events.
func Events() []EventLog { return obs.DefaultEvents().Events() }

// DiagServer is a live diagnostics HTTP server: Prometheus /metrics,
// /metrics.json, health and readiness probes, the decision-event ring,
// live Perfetto trace capture and net/http/pprof.
type DiagServer = diag.Server

// DiagCheck is one named health or readiness probe for the diagnostics
// server.
type DiagCheck = diag.Check

// StartDiagServer serves the process-wide diagnostics on addr (":0"
// picks a free port; see DiagServer.Addr). The server observes the same
// registry and event ring every Session reports into, so one server
// covers all sessions in the process.
func StartDiagServer(addr string) (*DiagServer, error) {
	return diag.Start(addr, diag.Options{})
}

// SaveMetricsFile writes the metrics snapshot to path: expvar-style
// "name value" lines sorted by name when the path ends in ".txt",
// indented JSON otherwise. This is the implementation behind the CLI
// -metrics-out flags.
func SaveMetricsFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if strings.HasSuffix(path, ".txt") {
		err = obs.Default().WriteText(f)
	} else {
		err = obs.Default().WriteJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// TraceRecorder captures the process's observability trace: planner and
// experiment spans recorded while it is attached, plus any simulated-run
// timelines merged in with AddSimTimeline. The result renders as one
// Chrome Trace Event Format JSON document (Perfetto, chrome://tracing)
// with the planner and each simulation as separate process groups.
type TraceRecorder struct {
	tr      *obs.Tracer
	nextPid int
}

// StartTrace attaches a fresh tracer to the process and returns its
// recorder: it receives every span recorded anywhere until Stop. Several
// recorders (and /debug/trace windows) may overlap; each records every
// span of its own window. Tracing changes no decisions — plans are
// byte-identical with and without a recorder attached — but planner
// spans do render their names, so leave tracing off on hot paths that
// don't need it. Stop the recorder before writing its document.
func StartTrace() *TraceRecorder {
	tr := obs.NewTracer()
	tr.Append(obs.ProcessNameEvent(obs.PidPlanner, "planner"))
	obs.AttachTracer(tr)
	return &TraceRecorder{tr: tr, nextPid: obs.PidSim}
}

// StartTraceCtx starts a request-scoped trace: a fresh tracer carried by
// the returned context rather than attached process-wide. Spans opened
// under that context (PartitionCtx, Session calls, Resilience) record
// into this recorder only, so concurrent scoped traces never interleave
// — the mechanism behind accpar-serve's per-request tracing. Stop is a
// no-op for scoped recorders (nothing attached to detach).
func StartTraceCtx(ctx context.Context) (context.Context, *TraceRecorder) {
	tr := obs.NewTracer()
	tr.Append(obs.ProcessNameEvent(obs.PidPlanner, "planner"))
	return obs.WithTracer(ctx, tr), &TraceRecorder{tr: tr, nextPid: obs.PidSim}
}

// Stop detaches the recorder from the process; recorded events remain
// available for export. Only the recorder's own tracer is detached —
// stopping a recorder never tears down a capture someone else started,
// and stopping a scoped or already-stopped one does nothing.
func (t *TraceRecorder) Stop() { obs.DetachTracer(t.tr) }

// AddSimTimeline merges a simulated run's per-task timeline (recorded
// with SimConfig.RecordTimeline) into the trace as its own process group,
// labelled label, with one compute and one network lane per machine.
// Successive calls stack runs side by side — the three simulations of a
// resilience experiment render as three process groups.
func (t *TraceRecorder) AddSimTimeline(res *SimResult, names [2]string, label string) error {
	events, err := res.ChromeTraceEvents(t.nextPid, label, names)
	if err != nil {
		return err
	}
	t.nextPid++
	t.tr.Append(events...)
	return nil
}

// WriteJSON writes the recorded trace as a Chrome Trace Event Format
// JSON document.
func (t *TraceRecorder) WriteJSON(w io.Writer) error { return t.tr.WriteJSON(w) }

// AuditRecorder collects the partition search's per-subproblem decisions
// — candidates, costs, winners, prune reasons, memo provenance — when
// attached via Options.Audit. Auditing is observation, not configuration:
// plans are byte-identical with and without a recorder attached.
type AuditRecorder = core.AuditRecorder

// AuditReport is the deterministic, sorted rendering of a recorded
// search (AuditRecorder.Report, Plan.SearchAudit); accpar-serve embeds it
// under "audit" when a /v1/plan request asks "explain": true, and the
// accpar CLI prints it for -explain-search.
type AuditReport = core.AuditReport

// NewAuditRecorder returns an empty search-decision recorder for
// Options.Audit.
func NewAuditRecorder() *AuditRecorder { return core.NewAuditRecorder() }

// SaveFile writes the trace document to path (the CLI -trace-out flags).
func (t *TraceRecorder) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = t.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
