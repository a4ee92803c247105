package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accpar/cmd/internal/spec"
)

// base returns the small default options used across the tests.
func base() opts {
	o := opts{Request: spec.Default()}
	o.Model, o.Batch, o.V2, o.V3 = "lenet", 16, 2, 2
	return o
}

func TestRunStrategies(t *testing.T) {
	for _, s := range []string{"dp", "owt", "hypar", "accpar"} {
		o := base()
		o.Strategy = s
		if err := run(o); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestRunOverlap(t *testing.T) {
	o := base()
	o.Model, o.Batch, o.Overlap = "alexnet", 8, true
	if err := run(o); err != nil {
		t.Errorf("overlap: %v", err)
	}
}

func TestRunArrayMode(t *testing.T) {
	o := base()
	o.array = true
	if err := run(o); err != nil {
		t.Errorf("array mode: %v", err)
	}
	o = base()
	o.Model, o.Batch, o.Strategy, o.Overlap, o.array = "alexnet", 8, "dp", true, true
	if err := run(o); err != nil {
		t.Errorf("array overlap mode: %v", err)
	}
}

func TestRunFaults(t *testing.T) {
	o := base()
	o.Faults = "slowdown:0=2.0,transient:1=0.1@0.0001"
	if err := run(o); err != nil {
		t.Errorf("faulted run: %v", err)
	}
	o.replan = true
	if err := run(o); err != nil {
		t.Errorf("replan run: %v", err)
	}
	o = base()
	o.Faults, o.Ckpt = "loss:1=0.5", 0.25
	if err := run(o); err != nil {
		t.Errorf("loss run: %v", err)
	}
}

// readTrace parses a written Chrome trace document.
func readTrace(t *testing.T, path string) []map[string]any {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace %s does not parse: %v", path, err)
	}
	return doc.TraceEvents
}

func TestRunObservabilityOutputs(t *testing.T) {
	dir := t.TempDir()
	o := base()
	o.metricsOut = filepath.Join(dir, "metrics.json")
	o.traceOut = filepath.Join(dir, "trace.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(o.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatalf("metrics do not parse: %v", err)
	}
	if snap.Counters["core.subproblems_expanded"] <= 0 || snap.Counters["sim.tasks"] <= 0 {
		t.Errorf("metrics miss planner/simulator counters: %v", snap.Counters)
	}

	events := readTrace(t, o.traceOut)
	pids := map[float64]bool{}
	complete := 0
	for _, e := range events {
		pids[e["pid"].(float64)] = true
		if e["ph"] == "X" {
			complete++
		}
	}
	if len(pids) < 2 {
		t.Errorf("trace has %d process groups; want planner + simulator", len(pids))
	}
	if complete == 0 {
		t.Error("trace has no simulated task events")
	}
}

func TestRunObservabilityReplanAndText(t *testing.T) {
	dir := t.TempDir()
	o := base()
	o.Faults, o.replan = "slowdown:0=2.0", true
	o.metricsOut = filepath.Join(dir, "metrics.txt")
	o.traceOut = filepath.Join(dir, "trace.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(o.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	if !strings.Contains(text, "sim.tasks ") || !strings.Contains(text, "plancache.") {
		t.Errorf("text metrics incomplete:\n%s", text)
	}

	// The resilience trace stacks three simulated runs as three process
	// groups next to the planner's.
	events := readTrace(t, o.traceOut)
	pids := map[float64]bool{}
	for _, e := range events {
		if e["ph"] == "X" {
			pids[e["pid"].(float64)] = true
		}
	}
	if len(pids) != 3 {
		t.Errorf("replan trace has %d simulated process groups; want 3", len(pids))
	}
}

func TestRunErrors(t *testing.T) {
	o := base()
	o.Model = "nope"
	if err := run(o); err == nil {
		t.Error("unknown model must error")
	}
	o = base()
	o.Strategy = "alpa"
	if err := run(o); err == nil {
		t.Error("unknown strategy must error")
	}
	o = base()
	o.Faults = "meltdown:0=2"
	if err := run(o); err == nil {
		t.Error("unknown fault kind must error")
	}
	o = base()
	o.replan = true
	if err := run(o); err == nil {
		t.Error("-replan without -faults must error")
	}
	o = base()
	o.Faults, o.array = "slowdown:0=2", true
	if err := run(o); err == nil {
		t.Error("-faults with -array must error")
	}
}
