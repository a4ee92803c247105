// Command accpar-autotune answers deployment questions for a fixed fleet:
// the mini-batch size that maximizes training throughput without
// overflowing HBM, and the hierarchy depth worth configuring.
//
// Usage:
//
//	accpar-autotune -model resnet50 -v2 16 -v3 16 -min 64 -max 2048
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"accpar"
	"accpar/internal/obs"
)

func main() {
	var (
		model      = flag.String("model", "resnet50", "model name: "+strings.Join(accpar.Models(), ", "))
		v2         = flag.Int("v2", 16, "TPU-v2 count")
		v3         = flag.Int("v3", 16, "TPU-v3 count")
		minBatch   = flag.Int("min", 64, "smallest batch to try")
		maxBatch   = flag.Int("max", 2048, "largest batch to try")
		metricsOut = flag.String("metrics-out", "", "write the metrics registry to this file (expvar-style text for .txt, JSON otherwise)")
		traceOut   = flag.String("trace-out", "", "write a Chrome Trace Event Format JSON trace of the planner spans to this file")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("accpar-autotune"))
		return
	}
	if err := run(*model, *v2, *v3, *minBatch, *maxBatch, *metricsOut, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "accpar-autotune:", err)
		os.Exit(1)
	}
}

func run(model string, v2, v3, minBatch, maxBatch int, metricsOut, traceOut string) error {
	var rec *accpar.TraceRecorder
	if traceOut != "" {
		rec = accpar.StartTrace()
	}
	arr, err := accpar.HeterogeneousArray(
		accpar.ArrayGroup{Spec: accpar.TPUv2(), Count: v2},
		accpar.ArrayGroup{Spec: accpar.TPUv3(), Count: v3})
	if err != nil {
		return err
	}
	fmt.Printf("fleet: %s  model: %s\n\n", arr.Name, model)

	// Both tuning sweeps share one session cache.
	sess := accpar.NewSession(0)

	batch, err := sess.TuneBatch(model, arr, minBatch, maxBatch)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-14s %-16s %-10s\n", "batch", "time/iter (s)", "samples/s", "fits HBM")
	for _, c := range batch.Choices {
		marker := ""
		if c.Batch == batch.Best.Batch {
			marker = "  <- best"
		}
		fmt.Printf("%-8d %-14.5g %-16.6g %-10v%s\n", c.Batch, c.Time, c.Throughput, c.MemoryOK, marker)
	}

	net, err := accpar.BuildModel(model, batch.Best.Batch)
	if err != nil {
		return err
	}
	depth, err := sess.TuneDepth(net, arr)
	if err != nil {
		return err
	}
	fmt.Printf("\nhierarchy depth at batch %d:\n", batch.Best.Batch)
	for _, c := range depth.Choices {
		marker := ""
		if c.Levels == depth.Best.Levels {
			marker = "  <- best"
		}
		fmt.Printf("  %d levels: %.6g samples/s%s\n", c.Levels, c.Throughput, marker)
	}

	st := sess.CacheStats()
	fmt.Printf("\nplan cache: %d hits / %d misses (%.1f%% hit rate)\n", st.Hits, st.Misses, 100*st.HitRate())
	if rec != nil {
		rec.Stop()
		if err := rec.SaveFile(traceOut); err != nil {
			return err
		}
		fmt.Println("trace written to", traceOut)
	}
	if metricsOut != "" {
		if err := accpar.SaveMetricsFile(metricsOut); err != nil {
			return err
		}
		fmt.Println("metrics written to", metricsOut)
	}
	return nil
}
