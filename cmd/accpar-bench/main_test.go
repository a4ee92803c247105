package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"accpar/internal/eval"
	"accpar/internal/obs"
)

// smallCfg keeps the harness runnable in test time.
func smallCfg() eval.Config {
	return eval.Config{Batch: 32, PerKind: 4, HomSize: 8, Models: []string{"lenet", "alexnet"}}
}

func TestRunSingleFigures(t *testing.T) {
	for _, fig := range []int{5, 6, 7, 8} {
		if err := run(io.Discard, smallCfg(), options{fig: fig}); err != nil {
			t.Errorf("figure %d: %v", fig, err)
		}
	}
}

func TestRunTable8(t *testing.T) {
	if err := run(io.Discard, smallCfg(), options{table: 8}); err != nil {
		t.Errorf("table 8: %v", err)
	}
}

// csvNames are the files the CSV export writes.
var csvNames = []string{"figure5.csv", "figure6.csv", "figure8.csv"}

// TestRunAllSmall pins the whole evaluation on smallCfg byte for byte:
// every figure (with bars), table, ablation and extension study, then the
// CSV export. testdata holds the output as it stood when Table 8, the
// ablations and the export each ran a sweep of their own; reading the
// sweeps the run already made must not change a byte.
func TestRunAllSmall(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run(&out, smallCfg(), options{ablations: true, bars: true, extensions: true, csvDir: dir}); err != nil {
		t.Fatalf("full harness: %v", err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "small.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, name := range csvNames {
		paths = append(paths, filepath.Join(dir, name))
	}
	want = fmt.Appendln(want, "wrote:", paths)
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from testdata/small.txt:\n got:\n%s\nwant:\n%s", out.Bytes(), want)
	}
	for _, name := range csvNames {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from testdata:\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// expanded counts the subproblems a run with o solves on smallCfg.
func expanded(t *testing.T, o options) int64 {
	t.Helper()
	count := func() int64 { return obs.Default().Snapshot().Counters["core.subproblems_expanded"] }
	before := count()
	if err := run(io.Discard, smallCfg(), o); err != nil {
		t.Fatal(err)
	}
	return count() - before
}

// TestRunPlansEachTreeOnce: Table 8, the ablations and the CSV export
// read the sweeps of the figures, so the whole evaluation solves exactly
// what its four figures solve alone, and Table 8 exactly what Figure 5
// does.
func TestRunPlansEachTreeOnce(t *testing.T) {
	var figs int64
	for _, fig := range []int{5, 6, 7, 8} {
		figs += expanded(t, options{fig: fig})
	}
	if got := expanded(t, options{ablations: true, csvDir: t.TempDir()}); got != figs {
		t.Errorf("every figure, table and ablation with -csv expanded %d subproblems; figures 5-8 alone expand %d", got, figs)
	}
	if got, fig5 := expanded(t, options{table: 8}), expanded(t, options{fig: 5}); got != fig5 {
		t.Errorf("table 8 expanded %d subproblems; figure 5 alone expands %d", got, fig5)
	}
}

func TestRunExtensionsSmall(t *testing.T) {
	cfg := smallCfg()
	cfg.PerKind = 2
	if err := runExtensions(io.Discard, cfg); err != nil {
		t.Errorf("extensions: %v", err)
	}
}

func TestExportAllSmall(t *testing.T) {
	var figs []*eval.FigureResult
	for _, fig := range []int{5, 6, 8} {
		fr, err := figures[fig](smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fr)
	}
	paths, err := eval.ExportAll(t.TempDir(), figs[0], figs[1], figs[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Errorf("paths = %v", paths)
	}
}

func TestRunStaticTables(t *testing.T) {
	for table := 3; table <= 7; table++ {
		if err := run(io.Discard, smallCfg(), options{fig: 99, table: table}); err != nil {
			t.Errorf("table %d: %v", table, err)
		}
	}
}
