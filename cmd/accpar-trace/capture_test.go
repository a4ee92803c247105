package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accpar/internal/obs"
)

// sampleCapture is a hand-built GET /debug/slowest/{id} document: three
// nested spans (one unfinished), capture metadata and a two-subproblem
// audit report.
const sampleCapture = `{
 "traceEvents": [
  {"name": "process_name", "ph": "M", "ts": 0, "pid": 1, "tid": 0, "args": {"name": "planner"}},
  {"name": "plan", "cat": "planner", "ph": "b", "ts": 0, "pid": 1, "tid": 0, "id": "1", "args": {"model": "lenet"}},
  {"name": "level", "cat": "planner", "ph": "b", "ts": 100, "pid": 1, "tid": 0, "id": "2", "args": {"level": 0}},
  {"name": "level", "cat": "planner", "ph": "e", "ts": 1600, "pid": 1, "tid": 0, "id": "2"},
  {"name": "plan", "cat": "planner", "ph": "e", "ts": 2000, "pid": 1, "tid": 0, "id": "1"},
  {"name": "flush", "cat": "planner", "ph": "b", "ts": 2100, "pid": 1, "tid": 0, "id": "3"}
 ],
 "displayTimeUnit": "ms",
 "accparCapture": {
  "id": "r7",
  "endpoint": "/v1/plan",
  "status": 200,
  "start": "2026-08-08T12:00:00Z",
  "duration_seconds": 0.0021,
  "tag": "slow",
  "request": {
   "model": "lenet", "batch": 32, "v2": 4, "v3": 4, "fleet": "", "strategy": "accpar",
   "levels": 8, "optimizer": "sgd", "inference": false, "memory_limit": "off"
  },
  "events": 6,
  "dropped_events": 2
 },
 "accparAudit": {
  "subproblems": [
   {"level": 0, "group": "root", "key": "a1b2c3d4", "provenance": "cold", "alpha": 0.531,
    "units": [
     {"unit": "cv1", "chosen": "II", "candidates": [
      {"type": "I", "cost_seconds": 0.002, "reason": "cost-dominated"},
      {"type": "II", "cost_seconds": 0.001, "reason": "won"}]},
     {"unit": "fc1", "chosen": "I", "candidates": [{"type": "I", "cost_seconds": 0.003, "reason": "won"}]}
    ],
    "memory": {"outcome": "enumerated"}},
   {"level": 1, "group": "tpu-v3[0:4]", "key": "beefcafe", "provenance": "memo-hit", "leaf": true}
  ],
  "totals": {"subproblems": 2, "cold": 1, "memo_hits": 1}
 }
}`

// TestRunCapturePrettyPrint drives a saved /debug/slowest document through
// the capture path and checks the header, span tree and audit one-liners.
func TestRunCapturePrettyPrint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slow.json")
	if err := os.WriteFile(path, []byte(sampleCapture), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runCapture(path, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"capture r7  /v1/plan  status 200  2.10ms",
		"tag:     slow",
		`request: {"model":"lenet","batch":32,"v2":4,"v3":4,"fleet":"",`,
		"dropped: 2 events",
		"span tree (3 spans",
		"plan [planner]  2.00ms  model=lenet",
		"  level [planner]  1.50ms  level=0",
		"flush [planner]",
		"(unfinished)",
		"search audit: 2 subproblems (cold 1, memo 1,",
		"a1b2c3d4  cold",
		"alpha=0.531",
		"chosen: cv1=II fc1=I",
		"memory:enumerated",
		"beefcafe  memo-hit",
		"leaf",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	// The nested level span is indented under plan; the root is not.
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "level [planner]") && !strings.Contains(line, "    level") {
			t.Errorf("level span not indented under plan: %q", line)
		}
	}
}

// TestRunCaptureNoAudit asserts a trace-only capture (no accparAudit key)
// prints the tree without an audit section, and garbage input errors.
func TestRunCaptureNoAudit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "noaudit.json")
	doc := `{"traceEvents":[],"accparCapture":{"id":"r1","endpoint":"/v1/compare","status":200,"duration_seconds":0.001}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := runCapture(path, &out); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "search audit") {
		t.Errorf("audit section printed without an audit:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "(no spans captured)") {
		t.Errorf("empty trace not noted:\n%s", out.String())
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCapture(bad, &out); err == nil {
		t.Error("garbage capture document did not error")
	}
}

// TestAssembleSpansOrdering pins parent-before-child ordering on equal
// start timestamps.
func TestAssembleSpansOrdering(t *testing.T) {
	events := []obs.Event{
		{Name: "child", Ph: "b", Ts: 10, ID: "2"},
		{Name: "child", Ph: "e", Ts: 20, ID: "2"},
		{Name: "parent", Ph: "b", Ts: 10, ID: "1"},
		{Name: "parent", Ph: "e", Ts: 50, ID: "1"},
	}
	spans := assembleSpans(events)
	if len(spans) != 2 || spans[0].name != "parent" || spans[1].name != "child" {
		t.Fatalf("spans = %+v; want parent first on tied start", spans)
	}
}
