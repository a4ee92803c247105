package eval

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"accpar/internal/core"
)

func TestFigureCSV(t *testing.T) {
	fr, err := Figure5(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(fr.Results)+1 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][4] != "accpar" {
		t.Errorf("header = %v", rows[0])
	}
	// Values parse and match the results to the serialized precision.
	v, err := strconv.ParseFloat(rows[1][4], 64)
	want := fr.Results[0].Speedup[core.StrategyAccPar]
	if err != nil || v < want*0.9999 || v > want*1.0001 {
		t.Errorf("row value %q vs %g", rows[1][4], want)
	}
}

func TestSeriesCSV(t *testing.T) {
	fr, err := Figure8(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fr.WriteSeriesCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 { // header + h=2..9
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	if rows[1][0] != "h=2" {
		t.Errorf("first x = %q", rows[1][0])
	}
	// A figure without series is rejected.
	empty := &FigureResult{Name: "empty"}
	if err := empty.WriteSeriesCSV(&buf); err == nil {
		t.Error("empty figure must be rejected")
	}
}

func TestExportAll(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "csv")
	var figs []*FigureResult
	for _, gen := range []func(Config) (*FigureResult, error){Figure5, Figure6, Figure8} {
		fr, err := gen(smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		figs = append(figs, fr)
	}
	paths, err := ExportAll(dir, figs[0], figs[1], figs[2])
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", p)
		}
	}
}
