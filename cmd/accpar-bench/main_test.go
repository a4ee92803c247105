package main

import (
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

func TestRunStaticTables(t *testing.T) {
	for table := 3; table <= 7; table++ {
		if err := run(smallCfg(), 99, table, false, false); err != nil {
			t.Errorf("table %d: %v", table, err)
		}
	}
}
