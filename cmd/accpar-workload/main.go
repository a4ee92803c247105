// Command accpar-workload generates a synthetic DNN workload (a random
// series-parallel network of convolutional and residual blocks) and
// partitions it across an accelerator array, printing the structure and
// the per-scheme comparison. Useful for exploring how the search behaves
// beyond the nine fixed evaluation models.
//
// Usage:
//
//	accpar-workload -seed 7 -v2 8 -v3 8
//	accpar-workload -seed 3 -layers 20 -dot -  # dump structure as DOT
package main

import (
	"flag"
	"fmt"
	"os"

	"accpar"
	"accpar/internal/hardware"
	"accpar/internal/obs"
	"accpar/internal/workload"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "workload seed")
		batch      = flag.Int("batch", 64, "mini-batch size")
		layers     = flag.Int("layers", 0, "exact weighted-layer count (0 = random in [3,12])")
		v2         = flag.Int("v2", 8, "TPU-v2 count")
		v3         = flag.Int("v3", 8, "TPU-v3 count")
		dotOut     = flag.String("dot", "", "write the network as Graphviz DOT to this file ('-' for stdout)")
		metricsOut = flag.String("metrics-out", "", "write the metrics registry to this file (expvar-style text for .txt, JSON otherwise)")
		traceOut   = flag.String("trace-out", "", "write a Chrome Trace Event Format JSON trace of the planner spans to this file")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("accpar-workload"))
		return
	}
	if err := runObserved(*seed, *batch, *layers, *v2, *v3, *dotOut, *metricsOut, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "accpar-workload:", err)
		os.Exit(1)
	}
}

// runObserved wraps run with the optional trace and metrics exports.
func runObserved(seed int64, batch, layers, v2, v3 int, dotOut, metricsOut, traceOut string) error {
	var rec *accpar.TraceRecorder
	if traceOut != "" {
		rec = accpar.StartTrace()
	}
	if err := run(seed, batch, layers, v2, v3, dotOut); err != nil {
		return err
	}
	if rec != nil {
		rec.Stop()
		if err := rec.SaveFile(traceOut); err != nil {
			return err
		}
		fmt.Printf("\ntrace written to %s (open in Perfetto or chrome://tracing)\n", traceOut)
	}
	if metricsOut != "" {
		if err := accpar.SaveMetricsFile(metricsOut); err != nil {
			return err
		}
		fmt.Printf("metrics written to %s\n", metricsOut)
	}
	return nil
}

func run(seed int64, batch, layers, v2, v3 int, dotOut string) error {
	cfg := workload.Config{Batch: batch}
	if layers > 0 {
		cfg.MinLayers, cfg.MaxLayers = layers, layers
	}
	net, err := workload.GenerateNetwork(seed, cfg)
	if err != nil {
		return err
	}
	if dotOut != "" {
		w := os.Stdout
		if dotOut != "-" {
			f, err := os.Create(dotOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		return net.WriteDOT(w)
	}

	fmt.Printf("workload %s: %d weighted layers, %d parameters, multi-path: %v\n\n",
		net.Name, len(net.Layers()), net.ParameterCount(), net.HasParallel())

	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: hardware.TPUv2(), Count: v2},
		hardware.GroupSpec{Spec: hardware.TPUv3(), Count: v3})
	if err != nil {
		return err
	}
	c, err := accpar.Compare(net, arr)
	if err != nil {
		return err
	}
	fmt.Printf("%-8s %-14s %-10s\n", "scheme", "time/iter (s)", "speedup")
	for _, s := range accpar.Strategies {
		fmt.Printf("%-8v %-14.6g %-10.2f\n", s, c.Plans[s].Time(), c.Speedup(s))
	}
	fmt.Println()
	fmt.Println(c.Plans[accpar.StrategyAccPar].TypeMap())
	return nil
}
