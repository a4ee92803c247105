package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"accpar/internal/eval"
)

// smallCfg keeps the harness runnable in test time.
func smallCfg() eval.Config {
	return eval.Config{Batch: 32, PerKind: 4, HomSize: 8, Models: []string{"lenet", "alexnet"}}
}

func TestRunSingleFigures(t *testing.T) {
	for _, fig := range []int{5, 6, 7, 8} {
		if err := run(smallCfg(), fig, 0, false, false); err != nil {
			t.Errorf("figure %d: %v", fig, err)
		}
	}
}

func TestRunTable8(t *testing.T) {
	if err := run(smallCfg(), 0, 8, false, false); err != nil {
		t.Errorf("table 8: %v", err)
	}
}

func TestRunAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness in -short mode")
	}
	if err := run(smallCfg(), 0, 0, true, true); err != nil {
		t.Errorf("full harness: %v", err)
	}
}

func TestRunExtensionsSmall(t *testing.T) {
	cfg := smallCfg()
	cfg.PerKind = 2
	if err := runExtensions(cfg); err != nil {
		t.Errorf("extensions: %v", err)
	}
}

func TestExportAllSmall(t *testing.T) {
	paths, err := eval.ExportAll(smallCfg(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Errorf("paths = %v", paths)
	}
}

func TestRunPerfJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark report in -short mode")
	}
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "BENCH_PLANNER.json")
	cpu := filepath.Join(dir, "cpu.prof")
	mem := filepath.Join(dir, "mem.prof")
	cfg := eval.Config{Batch: 32, PerKind: 2, HomSize: 8}
	if err := runPerf(cfg, jsonPath, cpu, mem); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(raw, &report); err != nil {
		t.Fatal(err)
	}
	if report.GoMaxProcs < 1 {
		t.Errorf("gomaxprocs = %d", report.GoMaxProcs)
	}
	if len(report.Benchmarks) != 15 {
		t.Fatalf("benchmarks = %d, want 15", len(report.Benchmarks))
	}
	if report.OverheadMemoryReject <= -1 {
		t.Errorf("memory-reject overhead = %g", report.OverheadMemoryReject)
	}
	for _, e := range report.Benchmarks {
		if e.NsPerOp <= 0 || e.Iterations <= 0 {
			t.Errorf("%s: degenerate measurement %+v", e.Name, e)
		}
	}
	if report.SpeedupParallelVsSerial <= 0 {
		t.Errorf("parallel speedup = %g", report.SpeedupParallelVsSerial)
	}
	if report.SpeedupWarmSweep <= 1 {
		t.Errorf("warm sweep speedup = %g, want > 1", report.SpeedupWarmSweep)
	}
	if report.SpeedupWarmTuneBatch <= 1 {
		t.Errorf("warm tune-batch speedup = %g, want > 1", report.SpeedupWarmTuneBatch)
	}
	if report.SpeedupReplanIncremental <= 1 {
		t.Errorf("incremental replan speedup = %g, want > 1", report.SpeedupReplanIncremental)
	}
	if report.SpeedupReplanWarm <= 1 {
		t.Errorf("warm replan speedup = %g, want > 1", report.SpeedupReplanWarm)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

func TestRunStaticTables(t *testing.T) {
	for table := 3; table <= 7; table++ {
		if err := run(smallCfg(), 99, table, false, false); err != nil {
			t.Errorf("table %d: %v", table, err)
		}
	}
}
