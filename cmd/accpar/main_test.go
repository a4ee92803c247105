package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accpar"
	"accpar/cmd/internal/spec"
)

// small is the default workload on a small model and fleet, with an
// 8-level budget.
func small(model string, batch, v2, v3 int) spec.Workload {
	w := spec.Default().Workload
	w.Model, w.Batch, w.V2, w.V3, w.Levels = model, batch, v2, v3, 8
	return w
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]accpar.Strategy{
		"dp": accpar.StrategyDP, "owt": accpar.StrategyOWT,
		"hypar": accpar.StrategyHyPar, "AccPar": accpar.StrategyAccPar,
	}
	for in, want := range cases {
		got, err := accpar.ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("accpar.ParseStrategy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := accpar.ParseStrategy("alpa"); err == nil {
		t.Error("unknown strategy must error")
	}
}

func TestBuildArray(t *testing.T) {
	arr, err := accpar.TPUFleet(2, 3)
	if err != nil || arr.Size() != 5 {
		t.Errorf("mixed array: %v, %v", arr, err)
	}
	arr, err = accpar.TPUFleet(4, 0)
	if err != nil || arr.Heterogeneous() {
		t.Errorf("v2-only array: %v, %v", arr, err)
	}
	arr, err = accpar.TPUFleet(0, 4)
	if err != nil || arr.Heterogeneous() {
		t.Errorf("v3-only array: %v, %v", arr, err)
	}
	if _, err := accpar.TPUFleet(0, 0); err == nil {
		t.Error("empty array must error")
	}
	for _, c := range [][2]int{{-5, 4}, {4, -5}, {-1, -1}, {40000, 40000}} {
		if _, err := accpar.TPUFleet(c[0], c[1]); err == nil {
			t.Errorf("TPUFleet(%d, %d) must error", c[0], c[1])
		}
	}
	// The CLI must not plan the v3 group alone when -v2 is negative.
	if err := run(small("lenet", 16, -5, 4), outputs{}); err == nil {
		t.Error("accpar -v2 -5 -v3 4 must error")
	}
}

func TestRunModes(t *testing.T) {
	if err := run(small("lenet", 16, 2, 2), outputs{showMap: true, explain: true}); err != nil {
		t.Errorf("plan mode: %v", err)
	}
	w := small("lenet", 16, 2, 2)
	w.Strategy = ""
	if err := run(w, outputs{compare: true}); err != nil {
		t.Errorf("compare mode: %v", err)
	}
	if err := run(small("nope", 16, 2, 2), outputs{}); err == nil {
		t.Error("unknown model must error")
	}
	w = small("lenet", 16, 2, 2)
	w.Strategy = "alpa"
	if err := run(w, outputs{}); err == nil {
		t.Error("unknown strategy must error")
	}
	w = small("lenet", 16, 2, 2)
	w.Optimizer = "lion"
	if err := run(w, outputs{}); err == nil {
		t.Error("unknown optimizer must error")
	}
}

func TestParseFleet(t *testing.T) {
	arr, err := accpar.ParseFleet("tpu-v2:4,gpu-class-b:2")
	if err != nil || arr.Size() != 6 {
		t.Errorf("ParseFleet: %v, %v", arr, err)
	}
	for _, bad := range []string{"tpu-v2", "nope:4", "tpu-v2:x", "tpu-v2:0", "tpu-v3:4000000", "tpu-v2:40000,tpu-v3:40000", "tpu-v2:9223372036854775807"} {
		if _, err := accpar.ParseFleet(bad); err == nil {
			t.Errorf("ParseFleet(%q) must error", bad)
		}
	}
	w := small("lenet", 16, 0, 0)
	w.Fleet = "edge-npu:2,gpu-class-a:2"
	if err := run(w, outputs{}); err != nil {
		t.Errorf("fleet run: %v", err)
	}
}

func TestRunInferenceMode(t *testing.T) {
	w := small("alexnet", 16, 2, 2)
	w.Inference = true
	if err := run(w, outputs{}); err != nil {
		t.Errorf("inference mode: %v", err)
	}
}

func TestRunDOTOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "net.dot")
	if err := run(small("resnet18", 8, 2, 2), outputs{dotOut: path}); err != nil {
		t.Fatalf("dot mode: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "digraph") {
		t.Error("DOT output malformed")
	}
}

func TestRunJSONOutput(t *testing.T) {
	path := filepath.Join(t.TempDir(), "plan.json")
	w := small("lenet", 16, 2, 2)
	w.Optimizer = "adam"
	if err := run(w, outputs{jsonOut: path}); err != nil {
		t.Fatalf("json mode: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := accpar.ReadPlanJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Network != "lenet" || plan.Batch != 16 {
		t.Errorf("decoded plan: %+v", plan)
	}
}
