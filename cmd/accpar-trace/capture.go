// Capture mode: pretty-print a /debug/slowest flight-recorder document —
// the span tree of the request's scoped trace with durations, followed by
// one line per search-audit subproblem.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"accpar/internal/core"
	"accpar/internal/diag"
	"accpar/internal/obs"
)

// captureFile is the GET /debug/slowest/{id} document shape. The capture
// metadata decodes from "accparCapture" (its TraceEvents/Audit fields are
// json:"-" and come from the top-level keys instead).
type captureFile struct {
	TraceEvents []obs.Event     `json:"traceEvents"`
	Capture     diag.Capture    `json:"accparCapture"`
	Audit       json.RawMessage `json:"accparAudit"`
}

// runCapture reads a capture document from path ("-" for stdin) and
// pretty-prints it to w.
func runCapture(path string, w io.Writer) error {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	var doc captureFile
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return fmt.Errorf("capture document does not parse: %w", err)
	}
	printCaptureHeader(w, doc.Capture)
	printSpanTree(w, doc.TraceEvents)
	return printAudit(w, doc.Audit)
}

// printCaptureHeader renders the request metadata block.
func printCaptureHeader(w io.Writer, c diag.Capture) {
	fmt.Fprintf(w, "capture %s  %s  status %d  %s\n", c.ID, c.Endpoint, c.Status, fmtDur(c.DurationSeconds*1e6))
	if c.Tag != "" {
		fmt.Fprintf(w, "tag:     %s\n", c.Tag)
	}
	if c.Request != "" {
		fmt.Fprintf(w, "request: %s\n", c.Request)
	}
	if !c.Start.IsZero() {
		fmt.Fprintf(w, "start:   %s\n", c.Start.Format("2006-01-02T15:04:05.000Z07:00"))
	}
	if c.DroppedEvents > 0 {
		fmt.Fprintf(w, "dropped: %d events (bounded tracer overflow; tree below is incomplete)\n", c.DroppedEvents)
	}
}

// span is one reconstructed b/e pair (or X event) from the trace.
type span struct {
	name       string
	cat        string
	start, end float64 // µs since capture start
	args       map[string]any
	unfinished bool
}

// assembleSpans pairs the async begin/end events by span id and returns
// the spans sorted for tree printing: by start ascending, longer first on
// ties, so parents always precede the children they contain.
func assembleSpans(events []obs.Event) []span {
	open := map[string]*span{}
	var spans []span
	var maxTs float64
	for _, e := range events {
		if e.Ts > maxTs {
			maxTs = e.Ts
		}
		if e.Ts+e.Dur > maxTs {
			maxTs = e.Ts + e.Dur
		}
		switch e.Ph {
		case "b":
			open[e.ID] = &span{name: e.Name, cat: e.Cat, start: e.Ts, args: e.Args}
		case "e":
			if s, ok := open[e.ID]; ok {
				s.end = e.Ts
				spans = append(spans, *s)
				delete(open, e.ID)
			}
		case "X":
			spans = append(spans, span{name: e.Name, cat: e.Cat, start: e.Ts, end: e.Ts + e.Dur, args: e.Args})
		}
	}
	// A begin with no end (the tracer detached mid-span) still prints,
	// clamped to the last timestamp seen.
	for _, s := range open {
		s.end = maxTs
		s.unfinished = true
		spans = append(spans, *s)
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].end > spans[j].end
	})
	return spans
}

// printSpanTree renders the spans as an indented tree, nesting by time
// containment.
func printSpanTree(w io.Writer, events []obs.Event) {
	spans := assembleSpans(events)
	fmt.Fprintf(w, "\nspan tree (%d spans; ts µs since capture start):\n", len(spans))
	if len(spans) == 0 {
		fmt.Fprintln(w, "  (no spans captured)")
		return
	}
	var stack []float64 // end timestamps of open ancestors
	for _, s := range spans {
		for len(stack) > 0 && stack[len(stack)-1] <= s.start {
			stack = stack[:len(stack)-1]
		}
		line := fmt.Sprintf("%10.1f  %s%s", s.start, strings.Repeat("  ", len(stack)), s.name)
		if s.cat != "" {
			line += " [" + s.cat + "]"
		}
		line += "  " + fmtDur(s.end-s.start)
		if s.unfinished {
			line += " (unfinished)"
		}
		if len(s.args) > 0 {
			line += "  " + fmtArgs(s.args)
		}
		fmt.Fprintln(w, line)
		stack = append(stack, s.end)
	}
}

// fmtDur renders a µs quantity at a readable scale.
func fmtDur(us float64) string {
	switch {
	case us >= 1e6:
		return fmt.Sprintf("%.3fs", us/1e6)
	case us >= 1e3:
		return fmt.Sprintf("%.2fms", us/1e3)
	default:
		return fmt.Sprintf("%.1fµs", us)
	}
}

// fmtArgs renders span args as sorted k=v pairs.
func fmtArgs(args map[string]any) string {
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, args[k])
	}
	return strings.Join(parts, " ")
}

// printAudit renders the embedded search-decision audit as one line per
// subproblem; an absent audit prints nothing.
func printAudit(w io.Writer, raw json.RawMessage) error {
	if len(raw) == 0 {
		return nil
	}
	var rep core.AuditReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		return fmt.Errorf("audit report does not parse: %w", err)
	}
	t := rep.Totals
	fmt.Fprintf(w, "\nsearch audit: %d subproblems (cold %d, memo %d, shared %d, pruned %d)\n",
		t.Subproblems, t.Cold, t.MemoHits, t.SharedCacheHits, t.CapacityFloorPruned)
	for _, s := range rep.Subproblems {
		fmt.Fprintln(w, auditLine(s))
	}
	return nil
}

// auditLine renders one subproblem decision as a single line.
func auditLine(s core.AuditSubproblem) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  L%-2d %-24s %s  %-16s", s.Level, s.Group, s.Key, s.Provenance)
	switch {
	case s.Leaf:
		b.WriteString("  leaf")
	case s.Alpha != 0:
		fmt.Fprintf(&b, "  alpha=%.3f", s.Alpha)
	}
	if len(s.Units) > 0 {
		const maxUnits = 6
		shown := s.Units
		if len(shown) > maxUnits {
			shown = shown[:maxUnits]
		}
		parts := make([]string, len(shown))
		for i, u := range shown {
			parts[i] = u.Unit + "=" + u.Chosen
		}
		fmt.Fprintf(&b, "  chosen: %s", strings.Join(parts, " "))
		if n := len(s.Units) - maxUnits; n > 0 {
			fmt.Fprintf(&b, " +%d more", n)
		}
	}
	if s.Memory != nil {
		fmt.Fprintf(&b, "  memory:%s", s.Memory.Outcome)
		if s.Memory.LambdaMult > 0 {
			fmt.Fprintf(&b, "(λ×%g)", s.Memory.LambdaMult)
		}
	}
	return b.String()
}
