// Command accpar-bench regenerates every table and figure of the paper's
// evaluation section: Figure 5 (heterogeneous-array speedups), Figure 6
// (homogeneous-array speedups), Figure 7 (AlexNet partition-type map),
// Figure 8 (hierarchy-level scalability on Vgg19), Table 8 (flexibility),
// and the ablation study of AccPar's design elements.
//
// Usage:
//
//	accpar-bench                 # everything, paper-scale
//	accpar-bench -fig 5          # one figure
//	accpar-bench -small          # reduced array for quick runs
package main

import (
	"flag"
	"fmt"
	"os"

	"accpar"
	"accpar/internal/core"
	"accpar/internal/eval"
	"accpar/internal/obs"
	"accpar/internal/tensor"
)

func main() {
	var (
		fig        = flag.Int("fig", 0, "regenerate one figure (5-8); 0 = all")
		table      = flag.Int("table", 0, "regenerate one table (3-8); 0 = all")
		ablations  = flag.Bool("ablations", true, "run the AccPar design-element ablations")
		small      = flag.Bool("small", false, "use a reduced 8+8 array and batch 64 for quick runs")
		bars       = flag.Bool("bars", false, "render bar charts next to the tables")
		extensions = flag.Bool("extensions", false, "also run the extension studies (topology, batch, fleet-composition sweeps)")
		csvDir     = flag.String("csv", "", "also export figures 5/6/8 as CSV files into this directory")
		cache      = flag.Bool("cache", false, "share one plan cache across every figure and table run")
		metricsOut = flag.String("metrics-out", "", "write the metrics registry to this file (expvar-style text for .txt, JSON otherwise)")
		traceOut   = flag.String("trace-out", "", "write a Chrome Trace Event Format JSON trace of the planner spans to this file")
		version    = flag.Bool("version", false, "print version and exit")
	)
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
	if *cache {
		cfg.Cache = core.NewSharedCache(0)
	}

	if err := run(cfg, *fig, *table, *ablations, *bars); err != nil {
		fmt.Fprintln(os.Stderr, "accpar-bench:", err)
		os.Exit(1)
	}
	if *extensions {
		if err := runExtensions(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "accpar-bench:", err)
			os.Exit(1)
		}
	}
	if *csvDir != "" {
		paths, err := eval.ExportAll(cfg, *csvDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "accpar-bench:", err)
			os.Exit(1)
		}
		fmt.Println("wrote:", paths)
	}
	if cfg.Cache != nil {
		st := cfg.Cache.Stats()
		fmt.Printf("plan cache: %d hits / %d misses (%.1f%% hit rate), %d resident\n",
			st.Hits, st.Misses, 100*st.HitRate(), cfg.Cache.Len())
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
func runExtensions(cfg eval.Config) error {
	for _, model := range []string{"vgg16", "resnet50"} {
		_, tbl, err := eval.TopologySweep(cfg, model)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
	}
	_, tbl, err := eval.BatchSweep(cfg, "vgg16", nil)
	if err != nil {
		return err
	}
	fmt.Println(tbl)
	boards := 32
	if cfg.PerKind > 0 && cfg.PerKind < 16 {
		boards = 2 * cfg.PerKind
	}
	_, tbl, err = eval.HeterogeneitySweep(cfg, "vgg16", boards)
	if err != nil {
		return err
	}
	fmt.Println(tbl)
	_, tbl, err = eval.MemoryCeilingSweep(cfg, "resnet50", nil)
	if err != nil {
		return err
	}
	fmt.Println(tbl)
	return nil
}

func run(cfg eval.Config, fig, table int, ablations, bars bool) error {
	all := fig == 0 && table == 0

	if all || fig == 5 {
		fr, err := eval.Figure5(cfg)
		if err != nil {
			return err
		}
		printFigure(fr, bars)
	}
	if all || fig == 6 {
		fr, err := eval.Figure6(cfg)
		if err != nil {
			return err
		}
		printFigure(fr, bars)
	}
	if all || fig == 7 {
		_, rendered, err := eval.Figure7()
		if err != nil {
			return err
		}
		fmt.Println(rendered)
	}
	if all || fig == 8 {
		fr, err := eval.Figure8(cfg)
		if err != nil {
			return err
		}
		printFigure(fr, bars)
	}
	if all || (table >= 3 && table <= 7) {
		example := tensor.Conv(512, 64, 128, 56, 56, 56, 56, 3, 3)
		switch {
		case all:
			fmt.Println(eval.Table3())
			fmt.Println(eval.Table4(example))
			fmt.Println(eval.Table5(example.AFNext(), 0.7))
			fmt.Println(eval.Table6(example))
			fmt.Println(eval.Table7())
		case table == 3:
			fmt.Println(eval.Table3())
		case table == 4:
			fmt.Println(eval.Table4(example))
		case table == 5:
			fmt.Println(eval.Table5(example.AFNext(), 0.7))
		case table == 6:
			fmt.Println(eval.Table6(example))
		case table == 7:
			fmt.Println(eval.Table7())
		}
	}
	if all || table == 8 {
		_, tbl, err := eval.Table8(cfg)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
	}
	if ablations && (all || fig == 0 && table == 0) {
		_, tbl, err := eval.RunAblations(cfg)
		if err != nil {
			return err
		}
		fmt.Println(tbl)
	}
	return nil
}

func printFigure(fr *eval.FigureResult, bars bool) {
	fmt.Println(fr.Table)
	if bars {
		fmt.Println(fr.Series[core.StrategyAccPar].Bars(48))
	}
	fmt.Printf("geomean speedups: DP %.2f  OWT %.2f  HyPar %.2f  AccPar %.2f\n\n",
		fr.Geomean[core.StrategyDP], fr.Geomean[core.StrategyOWT],
		fr.Geomean[core.StrategyHyPar], fr.Geomean[core.StrategyAccPar])
}
