package eval

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"accpar/internal/core"
)

// WriteCSV streams a figure's per-model speedups as CSV (one row per
// model, one column per scheme) for external plotting.
func (fr *FigureResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"model", "dp", "owt", "hypar", "accpar"}); err != nil {
		return err
	}
	for _, r := range fr.Results {
		rec := []string{r.Model}
		for _, s := range core.Strategies {
			rec = append(rec, strconv.FormatFloat(r.Speedup[s], 'g', 6, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSeriesCSV streams an x-swept figure (Figure 8 style) as CSV using
// the series' shared x labels.
func (fr *FigureResult) WriteSeriesCSV(w io.Writer) error {
	acc := fr.Series[core.StrategyAccPar]
	if acc == nil || len(acc.X) == 0 {
		return fmt.Errorf("eval: figure %q has no series", fr.Name)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"x", "dp", "owt", "hypar", "accpar"}); err != nil {
		return err
	}
	for i := range acc.X {
		rec := []string{acc.X[i]}
		for _, s := range core.Strategies {
			rec = append(rec, strconv.FormatFloat(fr.Series[s].Y[i], 'g', 6, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ExportAll regenerates Figures 5, 6 and 8 and writes them as CSV files
// into dir (figure5.csv, figure6.csv, figure8.csv), returning the paths.
func ExportAll(cfg Config, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	write := func(name string, gen func() (*FigureResult, error), series bool) error {
		fr, err := gen()
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if series {
			err = fr.WriteSeriesCSV(f)
		} else {
			err = fr.WriteCSV(f)
		}
		if err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}
	if err := write("figure5.csv", func() (*FigureResult, error) { return Figure5(cfg) }, false); err != nil {
		return nil, err
	}
	if err := write("figure6.csv", func() (*FigureResult, error) { return Figure6(cfg) }, false); err != nil {
		return nil, err
	}
	if err := write("figure8.csv", func() (*FigureResult, error) { return Figure8(cfg) }, true); err != nil {
		return nil, err
	}
	return paths, nil
}
