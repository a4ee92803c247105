// Command accpar-bench regenerates every table and figure of the paper's
// evaluation section: Figure 5 (heterogeneous-array speedups), Figure 6
// (homogeneous-array speedups), Figure 7 (AlexNet partition-type map),
// Figure 8 (hierarchy-level scalability on Vgg19), Tables 3–7 (the cost
// model), Table 8 (flexibility), and the ablation study of AccPar's design
// elements. Table 8 and the ablations read Figure 5's sweep, and -csv
// writes the figures the run made, so a run plans each figure's arrays
// once.
//
// Usage:
//
//	accpar-bench                 # everything, paper-scale
//	accpar-bench -fig 5          # one figure
//	accpar-bench -table 8        # one table
//	accpar-bench -small          # reduced array for quick runs
//	accpar-bench -extensions     # also the topology, batch, fleet and memory sweeps
//	accpar-bench -csv out/       # also figures 5, 6 and 8 as CSV files
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"accpar"
	"accpar/internal/core"
	"accpar/internal/eval"
	"accpar/internal/obs"
	"accpar/internal/tensor"
)

// options selects what run prints and writes.
type options struct {
	fig, table                  int // one figure (5-8) or table (3-8); both 0 = all
	ablations, bars, extensions bool
	csvDir                      string // when set, figures 5, 6 and 8 go here as CSV
}

func main() {
	var o options
	flag.IntVar(&o.fig, "fig", 0, "regenerate one figure (5-8); 0 = all")
	flag.IntVar(&o.table, "table", 0, "regenerate one table (3-8); 0 = all")
	flag.BoolVar(&o.ablations, "ablations", true, "run the AccPar design-element ablations")
	small := flag.Bool("small", false, "use a reduced 8+8 array and batch 64 for quick runs")
	flag.BoolVar(&o.bars, "bars", false, "render bar charts next to the tables")
	flag.BoolVar(&o.extensions, "extensions", false, "also run the extension studies (topology, batch, fleet-composition sweeps)")
	flag.StringVar(&o.csvDir, "csv", "", "also export figures 5/6/8 as CSV files into this directory")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry to this file (expvar-style text for .txt, JSON otherwise)")
	traceOut := flag.String("trace-out", "", "write a Chrome Trace Event Format JSON trace of the planner spans to this file")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("accpar-bench"))
		return
	}

	var rec *accpar.TraceRecorder
	if *traceOut != "" {
		rec = accpar.StartTrace()
	}

	cfg := eval.Config{}
	if *small {
		cfg = eval.Config{Batch: 64, PerKind: 8, HomSize: 16}
	}

	if err := run(os.Stdout, cfg, o); err != nil {
		fmt.Fprintln(os.Stderr, "accpar-bench:", err)
		os.Exit(1)
	}
	if rec != nil {
		rec.Stop()
		if err := rec.SaveFile(*traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "accpar-bench:", err)
			os.Exit(1)
		}
		fmt.Println("trace written to", *traceOut)
	}
	if *metricsOut != "" {
		if err := accpar.SaveMetricsFile(*metricsOut); err != nil {
			fmt.Fprintln(os.Stderr, "accpar-bench:", err)
			os.Exit(1)
		}
		fmt.Println("metrics written to", *metricsOut)
	}
}

// runExtensions prints the extension studies.
func runExtensions(w io.Writer, cfg eval.Config) error {
	for _, model := range []string{"vgg16", "resnet50"} {
		_, tbl, err := eval.TopologySweep(cfg, model)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tbl)
	}
	_, tbl, err := eval.BatchSweep(cfg, "vgg16", nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, tbl)
	boards := 32
	if cfg.PerKind > 0 && cfg.PerKind < 16 {
		boards = 2 * cfg.PerKind
	}
	_, tbl, err = eval.HeterogeneitySweep(cfg, "vgg16", boards)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, tbl)
	_, tbl, err = eval.MemoryCeilingSweep(cfg, "resnet50", nil)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, tbl)
	return nil
}

// figures are the sweeps run can print, by figure number.
var figures = map[int]func(eval.Config) (*eval.FigureResult, error){
	5: eval.Figure5,
	6: eval.Figure6,
	8: eval.Figure8,
}

// run prints what o selects to w, in the paper's order, then the
// extensions and the CSV export. Each figure's sweep runs at most once:
// Table 8 and the ablations read Figure 5's, and the export writes the
// figures already made, running only those the run did not print.
func run(w io.Writer, cfg eval.Config, o options) error {
	all := o.fig == 0 && o.table == 0
	made := map[int]*eval.FigureResult{}
	figure := func(n int) (*eval.FigureResult, error) {
		if fr := made[n]; fr != nil {
			return fr, nil
		}
		fr, err := figures[n](cfg)
		if err != nil {
			return nil, err
		}
		made[n] = fr
		return fr, nil
	}

	for _, n := range []int{5, 6, 7, 8} {
		if !all && o.fig != n {
			continue
		}
		if n == 7 {
			_, rendered, err := eval.Figure7()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, rendered)
			continue
		}
		fr, err := figure(n)
		if err != nil {
			return err
		}
		printFigure(w, fr, o.bars)
	}
	if all || (o.table >= 3 && o.table <= 7) {
		example := tensor.Conv(512, 64, 128, 56, 56, 56, 56, 3, 3)
		switch {
		case all:
			fmt.Fprintln(w, eval.Table3())
			fmt.Fprintln(w, eval.Table4(example))
			fmt.Fprintln(w, eval.Table5(example.AFNext(), 0.7))
			fmt.Fprintln(w, eval.Table6(example))
			fmt.Fprintln(w, eval.Table7())
		case o.table == 3:
			fmt.Fprintln(w, eval.Table3())
		case o.table == 4:
			fmt.Fprintln(w, eval.Table4(example))
		case o.table == 5:
			fmt.Fprintln(w, eval.Table5(example.AFNext(), 0.7))
		case o.table == 6:
			fmt.Fprintln(w, eval.Table6(example))
		case o.table == 7:
			fmt.Fprintln(w, eval.Table7())
		}
	}
	if all || o.table == 8 {
		fr, err := figure(5)
		if err != nil {
			return err
		}
		_, tbl := eval.Table8(fr.Results)
		fmt.Fprintln(w, tbl)
	}
	if o.ablations && all {
		fr, err := figure(5)
		if err != nil {
			return err
		}
		_, tbl := eval.RunAblations(fr.Results)
		fmt.Fprintln(w, tbl)
	}
	if o.extensions {
		if err := runExtensions(w, cfg); err != nil {
			return err
		}
	}
	if o.csvDir != "" {
		var figs [3]*eval.FigureResult
		for i, n := range []int{5, 6, 8} {
			fr, err := figure(n)
			if err != nil {
				return err
			}
			figs[i] = fr
		}
		paths, err := eval.ExportAll(o.csvDir, figs[0], figs[1], figs[2])
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "wrote:", paths)
	}
	return nil
}

func printFigure(w io.Writer, fr *eval.FigureResult, bars bool) {
	fmt.Fprintln(w, fr.Table)
	if bars {
		fmt.Fprintln(w, fr.Series[core.StrategyAccPar].Bars(48))
	}
	fmt.Fprintf(w, "geomean speedups: DP %.2f  OWT %.2f  HyPar %.2f  AccPar %.2f\n\n",
		fr.Geomean[core.StrategyDP], fr.Geomean[core.StrategyOWT],
		fr.Geomean[core.StrategyHyPar], fr.Geomean[core.StrategyAccPar])
}
