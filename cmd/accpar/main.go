// Command accpar partitions a DNN training workload across an accelerator
// array and prints the resulting plan: per-level partition types, ratios,
// modelled iteration time and training throughput.
//
// Usage:
//
//	accpar -model vgg16 -batch 512 -v2 128 -v3 128 -strategy accpar -map
//	accpar -model resnet50 -compare
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"accpar"
	"accpar/internal/obs"
)

func main() {
	var (
		model         = flag.String("model", "alexnet", "model name: "+strings.Join(accpar.Models(), ", "))
		batch         = flag.Int("batch", 512, "mini-batch size")
		v2            = flag.Int("v2", 128, "number of TPU-v2 accelerators")
		v3            = flag.Int("v3", 128, "number of TPU-v3 accelerators")
		fleet         = flag.String("fleet", "", "explicit fleet spec overriding -v2/-v3, e.g. \"tpu-v2:64,gpu-class-b:32\" (presets: tpu-v2, tpu-v3, gpu-class-a, gpu-class-b, edge-npu)")
		strategy      = flag.String("strategy", "accpar", "partitioning strategy: dp, owt, hypar, accpar")
		levels        = flag.Int("levels", 64, "hierarchy level budget (64 = split to single accelerators)")
		showMap       = flag.Bool("map", false, "print the per-level partition type map (Figure 7 style)")
		compare       = flag.Bool("compare", false, "compare all four strategies")
		jsonOut       = flag.String("json", "", "write the plan as JSON to this file ('-' for stdout)")
		dotOut        = flag.String("dot", "", "write the network structure as Graphviz DOT to this file ('-' for stdout)")
		optName       = flag.String("optimizer", "sgd", "weight-update rule: sgd, momentum, adam")
		explain       = flag.Bool("explain", false, "print the per-layer cost breakdown of the root split")
		explainSearch = flag.Bool("explain-search", false, "print the search-decision audit as JSON: per-subproblem candidates, costs, winners, prune reasons and memo provenance (single-strategy runs; stderr when combined with -json)")
		infer         = flag.Bool("inference", false, "cost the forward phase only (inference) instead of training")
		memory        = flag.String("memory", "off", "HBM capacity constraint: off, reject (error when nothing fits), penalize (prefer fitting plans, best effort)")

		metricsOut = flag.String("metrics-out", "", "write the metrics registry to this file (expvar-style text for .txt, JSON otherwise)")
		traceOut   = flag.String("trace-out", "", "write a Chrome Trace Event Format JSON trace of the planner spans to this file")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("accpar"))
		return
	}

	var rec *accpar.TraceRecorder
	if *traceOut != "" {
		rec = accpar.StartTrace()
	}
	if err := run(*model, *batch, *v2, *v3, *fleet, *strategy, *levels, *showMap, *compare, *explain, *explainSearch, *infer, *jsonOut, *dotOut, *optName, *memory); err != nil {
		fmt.Fprintln(os.Stderr, "accpar:", err)
		os.Exit(1)
	}
	if err := flushObs(rec, *traceOut, *metricsOut); err != nil {
		fmt.Fprintln(os.Stderr, "accpar:", err)
		os.Exit(1)
	}
}

// flushObs saves the optional trace and metrics exports after a
// successful run.
func flushObs(rec *accpar.TraceRecorder, traceOut, metricsOut string) error {
	if rec != nil {
		rec.Stop()
		if err := rec.SaveFile(traceOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "trace written to %s (open in Perfetto or chrome://tracing)\n", traceOut)
	}
	if metricsOut != "" {
		if err := accpar.SaveMetricsFile(metricsOut); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "metrics written to %s\n", metricsOut)
	}
	return nil
}

func run(model string, batch, v2, v3 int, fleet, strategy string, levels int, showMap, compare, explain, explainSearch, infer bool, jsonOut, dotOut, optName, memory string) error {
	net, err := accpar.BuildModel(model, batch)
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
	var arr *accpar.Array
	if fleet != "" {
		arr, err = accpar.ParseFleet(fleet)
	} else {
		arr, err = accpar.TPUFleet(v2, v3)
	}
	if err != nil {
		return err
	}
	fmt.Printf("model: %s  batch: %d  weighted layers: %d  parameters: %d\n",
		model, batch, len(net.Layers()), net.ParameterCount())
	fmt.Printf("array: %s\n\n", arr.Name)

	if compare {
		c, err := accpar.Compare(net, arr)
		if err != nil {
			return err
		}
		fmt.Printf("%-8s %-14s %-14s %-10s\n", "scheme", "time/iter (s)", "samples/s", "speedup")
		for _, s := range accpar.Strategies {
			p := c.Plans[s]
			fmt.Printf("%-8s %-14.6g %-14.5g %-10.2f\n", s, p.Time(), p.Throughput(), c.Speedup(s))
		}
		return nil
	}

	st, err := accpar.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	opt := st.Options()
	opt.Optimizer, err = accpar.ParseOptimizer(optName)
	if err != nil {
		return err
	}
	if infer {
		opt.Mode = accpar.ModeInference
	}
	opt.MemoryLimit, err = accpar.ParseMemoryMode(memory)
	if err != nil {
		return err
	}
	if explainSearch {
		opt.Audit = accpar.NewAuditRecorder()
	}
	plan, err := accpar.PartitionWithOptions(net, arr, opt, levels)
	if err != nil {
		var nfe *accpar.NoFeasiblePlanError
		if errors.As(err, &nfe) {
			return fmt.Errorf("no plan fits under -memory %s: group %s needs %d bytes of HBM but has %d", memory, nfe.TightestGroup, nfe.ResidencyBytes, nfe.CapacityBytes)
		}
		return err
	}
	if jsonOut != "" {
		w := os.Stdout
		if jsonOut != "-" {
			f, err := os.Create(jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		if err := plan.WriteJSON(w); err != nil {
			return err
		}
		// The audit goes to stderr so the plan document stays clean.
		return writeSearchAudit(opt.Audit, os.Stderr)
	}
	fmt.Printf("strategy: %v\n", st)
	fmt.Printf("iteration time: %.6g s\n", plan.Time())
	fmt.Printf("throughput:     %.5g samples/s\n", plan.Throughput())
	fmt.Printf("network bytes:  %.4g per iteration\n", plan.CommBytes())
	fmt.Printf("%s\n", plan.Memory())
	fmt.Println()
	fmt.Printf("%-6s %-24s %-8s %-12s\n", "level", "group", "alpha", "comm time")
	for i, lvl := range plan.Levels() {
		fmt.Printf("%-6d %-24s %-8.3f %-12.4g\n", i+1, lvl.GroupDesc, lvl.Alpha, lvl.Eval.CommTime)
	}
	if showMap {
		fmt.Println()
		fmt.Println(plan.TypeMap())
	}
	if explain {
		rendered, err := plan.ExplainString()
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(rendered)
	}
	if explainSearch {
		fmt.Println()
		fmt.Println("search audit (per-subproblem decisions, sorted by level):")
		return writeSearchAudit(opt.Audit, os.Stdout)
	}
	return nil
}

// writeSearchAudit renders the recorded search audit as JSON; a nil
// recorder (audit not requested) writes nothing.
func writeSearchAudit(rec *accpar.AuditRecorder, w io.Writer) error {
	if rec == nil {
		return nil
	}
	return rec.WriteJSON(w)
}
