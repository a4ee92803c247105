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

// ExportAll writes Figures 5, 6 and 8, as made by Figure5, Figure6 and
// Figure8, as CSV files into dir (figure5.csv, figure6.csv, figure8.csv),
// returning the paths. It searches nothing.
func ExportAll(dir string, fig5, fig6, fig8 *FigureResult) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	files := []struct {
		name  string
		fr    *FigureResult
		write func(*FigureResult, io.Writer) error
	}{
		{"figure5.csv", fig5, (*FigureResult).WriteCSV},
		{"figure6.csv", fig6, (*FigureResult).WriteCSV},
		{"figure8.csv", fig8, (*FigureResult).WriteSeriesCSV},
	}
	var paths []string
	for _, file := range files {
		path := filepath.Join(dir, file.name)
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		err = file.write(file.fr, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
