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

	"accpar"
	"accpar/cmd/internal/spec"
	"accpar/internal/obs"
)

// outputs are the command's output choices, beside the workload.
type outputs struct {
	showMap, compare, explain, explainSearch bool
	jsonOut, dotOut                          string
}

func main() {
	w := spec.Default().Workload
	var o outputs
	flag.StringVar(&w.Model, "model", w.Model, spec.ModelUsage())
	flag.IntVar(&w.Batch, "batch", w.Batch, "mini-batch size")
	flag.IntVar(&w.V2, "v2", w.V2, "number of TPU-v2 accelerators")
	flag.IntVar(&w.V3, "v3", w.V3, "number of TPU-v3 accelerators")
	flag.StringVar(&w.Fleet, "fleet", w.Fleet, "explicit fleet spec overriding -v2/-v3, e.g. \"tpu-v2:64,gpu-class-b:32\" (presets: tpu-v2, tpu-v3, gpu-class-a, gpu-class-b, edge-npu)")
	flag.StringVar(&w.Strategy, "strategy", w.Strategy, "partitioning strategy: dp, owt, hypar, accpar (accpar plans one configuration; the AccPar row of -compare is the nine-variant portfolio)")
	flag.IntVar(&w.Levels, "levels", w.Levels, "hierarchy level budget (64 = split to single accelerators)")
	flag.BoolVar(&o.showMap, "map", false, "print the per-level partition type map (Figure 7 style)")
	flag.BoolVar(&o.compare, "compare", false, "compare all four strategies")
	flag.StringVar(&o.jsonOut, "json", "", "write the plan as JSON to this file ('-' for stdout)")
	flag.StringVar(&o.dotOut, "dot", "", "write the network structure as Graphviz DOT to this file ('-' for stdout)")
	flag.StringVar(&w.Optimizer, "optimizer", w.Optimizer, "weight-update rule: sgd, momentum, adam")
	flag.BoolVar(&o.explain, "explain", false, "print the per-layer cost breakdown of the root split")
	flag.BoolVar(&o.explainSearch, "explain-search", false, "print the search-decision audit as JSON: per-subproblem candidates, costs, winners, prune reasons and memo provenance (single-strategy runs; stderr when combined with -json)")
	flag.BoolVar(&w.Inference, "inference", w.Inference, "cost the forward phase only (inference) instead of training")
	flag.StringVar(&w.MemoryLimit, "memory", w.MemoryLimit, "HBM capacity constraint: off, reject (error when nothing fits), penalize (prefer fitting plans, best effort)")
	var (
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
	if err := run(w, o); err != nil {
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

func run(w spec.Workload, o outputs) error {
	net, err := w.Network()
	if err != nil {
		return err
	}
	if o.dotOut != "" {
		out := os.Stdout
		if o.dotOut != "-" {
			f, err := os.Create(o.dotOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		return net.WriteDOT(out)
	}
	arr, err := w.Array()
	if err != nil {
		return err
	}
	fmt.Printf("model: %s  batch: %d  weighted layers: %d  parameters: %d\n",
		w.Model, w.Batch, len(net.Layers()), net.ParameterCount())
	fmt.Printf("array: %s\n\n", arr.Name)

	if o.compare {
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

	st, opt, err := w.Options()
	if err != nil {
		return err
	}
	if o.explainSearch {
		opt.Audit = accpar.NewAuditRecorder()
	}
	plan, err := accpar.PartitionWithOptions(net, arr, opt, w.Levels)
	if err != nil {
		var nfe *accpar.NoFeasiblePlanError
		if errors.As(err, &nfe) {
			return fmt.Errorf("no plan fits under -memory %s: group %s needs %d bytes of HBM but has %d", w.MemoryLimit, nfe.TightestGroup, nfe.ResidencyBytes, nfe.CapacityBytes)
		}
		return err
	}
	if o.jsonOut != "" {
		out := os.Stdout
		if o.jsonOut != "-" {
			f, err := os.Create(o.jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			out = f
		}
		if err := plan.WriteJSON(out); err != nil {
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
	if o.showMap {
		fmt.Println()
		fmt.Println(plan.TypeMap())
	}
	if o.explain {
		rendered, err := plan.ExplainString()
		if err != nil {
			return err
		}
		fmt.Println()
		fmt.Println(rendered)
	}
	if o.explainSearch {
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
