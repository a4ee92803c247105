package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeConfig is a seconds-scale sweep: two kinds, small counts, the
// default fault, a metrics snapshot and the frontier artifact.
func smokeConfig(dir string, workers int) config {
	return config{
		model:      "alexnet",
		batch:      64,
		kinds:      "tpu-v2=1.0,tpu-v3=2.2",
		counts:     "0,4,8",
		levels:     "2,8",
		netScales:  "1,2",
		fault:      "slowdown:0=2.0",
		workers:    workers,
		out:        filepath.Join(dir, "frontier.json"),
		metricsOut: filepath.Join(dir, "metrics.json"),
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	cfg := smokeConfig(dir, 4)
	// Fault-free, so the sweep runs no replans and every plan-cache hit
	// below is one candidate's search served from another's.
	cfg.fault = ""
	var buf bytes.Buffer
	if err := run(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"model alexnet", "frontier", "fleet", "strategy"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	raw, err := os.ReadFile(cfg.out)
	if err != nil {
		t.Fatal(err)
	}
	var artifact struct {
		Model      string `json:"model"`
		Candidates int    `json:"candidates"`
		Frontier   []struct {
			Name string  `json:"name"`
			Cost float64 `json:"cost"`
		} `json:"frontier"`
	}
	if err := json.Unmarshal(raw, &artifact); err != nil {
		t.Fatalf("frontier artifact is not JSON: %v", err)
	}
	if artifact.Model != "alexnet" || artifact.Candidates == 0 || len(artifact.Frontier) == 0 {
		t.Errorf("frontier artifact incomplete: %+v", artifact)
	}

	// The metrics snapshot carries the plan-cache hits CI asserts on: the
	// candidates share subproblems, so the count must be nonzero.
	mraw, err := os.ReadFile(cfg.metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(mraw, &metrics); err != nil {
		t.Fatalf("metrics snapshot is not JSON: %v", err)
	}
	if hits, ok := metrics.Counters["plancache.hits"]; !ok || hits <= 0 {
		t.Errorf("plancache.hits = %d (present=%v), want > 0", hits, ok)
	}
}

// TestRunDeterministicAcrossWorkers mirrors the CI dse-smoke job: the
// frontier artifact must be byte-identical across worker-pool sizes.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	var artifacts [][]byte
	for _, workers := range []int{1, 4} {
		dir := t.TempDir()
		cfg := smokeConfig(dir, workers)
		cfg.metricsOut = ""
		var buf bytes.Buffer
		if err := run(&buf, cfg); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(cfg.out)
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, raw)
	}
	if !bytes.Equal(artifacts[0], artifacts[1]) {
		t.Errorf("frontier artifact differs across worker counts:\n%s\nvs\n%s", artifacts[0], artifacts[1])
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	bad := []config{
		{model: "alexnet", batch: 64, kinds: "no-such=1", counts: "4", levels: "8", netScales: "1"},
		{model: "alexnet", batch: 64, kinds: "tpu-v2", counts: "4", levels: "8", netScales: "1"},
		{model: "alexnet", batch: 64, kinds: "tpu-v2=x", counts: "4", levels: "8", netScales: "1"},
		{model: "alexnet", batch: 64, kinds: "", counts: "4", levels: "8", netScales: "1"},
		{model: "alexnet", batch: 64, kinds: "tpu-v2=1", counts: "four", levels: "8", netScales: "1"},
		{model: "alexnet", batch: 64, kinds: "tpu-v2=1", counts: "4", levels: "eight", netScales: "1"},
		{model: "alexnet", batch: 64, kinds: "tpu-v2=1", counts: "4", levels: "8", netScales: "one"},
		{model: "no-such-model", batch: 64, kinds: "tpu-v2=1", counts: "4", levels: "8", netScales: "1"},
	}
	for i, cfg := range bad {
		if err := run(&buf, cfg); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
}
