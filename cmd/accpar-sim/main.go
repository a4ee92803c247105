// Command accpar-sim runs the trace-driven discrete-event simulator on a
// two-group split of a model: it derives the tensor access and MULT/ADD
// traces of every layer under the chosen partition plan and schedules one
// training iteration over the two groups' compute, HBM and network
// resources, printing the timing breakdown, utilization and memory
// residency. This cross-validates the analytic cost model at the
// granularity the paper's tables are derived for.
//
// With -faults, a deterministic fault scenario is injected into the run;
// with -replan the command additionally replans against the degraded
// specs and prints the three-way fault-free / stale / replanned
// resilience report.
//
// Usage:
//
//	accpar-sim -model vgg16 -batch 512 -v2 128 -v3 128 -strategy accpar
//	accpar-sim -model resnet50 -overlap
//	accpar-sim -faults slowdown:0=2.0 -replan
//	accpar-sim -faults transient:1=0.02@0.001,netbw:0=4 -seed 7
package main

import (
	"flag"
	"fmt"
	"os"

	"accpar"
	"accpar/cmd/internal/spec"
	"accpar/internal/arraysim"
	"accpar/internal/hardware"
	"accpar/internal/obs"
)

// opts collects the command's knobs: the request and its run modes and
// outputs.
type opts struct {
	spec.Request
	array      bool
	replan     bool
	metricsOut string
	traceOut   string
}

// runArray executes the array-level simulation of the full plan.
func runArray(plan *accpar.Plan, arr *accpar.Array, o opts, st accpar.Strategy) error {
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		return err
	}
	res, err := arraysim.Simulate(plan, tree, arraysim.Config{OverlapComm: o.Overlap})
	if err != nil {
		return err
	}
	fmt.Printf("model: %s  batch: %d  strategy: %v  overlap: %v\n\n", o.Model, o.Batch, st, o.Overlap)
	fmt.Printf("array-level simulated time: %.6g s (%d leaves, %d links, %d tasks)\n",
		res.Time, res.Leaves, res.Links, res.Tasks)
	fmt.Printf("analytic model:             %.6g s (ratio %.2f)\n", res.AnalyticTime, res.Time/res.AnalyticTime)
	fmt.Printf("busiest leaf compute %.4gs, busiest link %.4gs\n", res.ComputeBusyMax, res.LinkBusyMax)
	return nil
}

func main() {
	o := opts{Request: spec.Default()}
	flag.StringVar(&o.Model, "model", o.Model, spec.ModelUsage())
	flag.IntVar(&o.Batch, "batch", o.Batch, "mini-batch size")
	flag.IntVar(&o.V2, "v2", o.V2, "TPU-v2 count (group A)")
	flag.IntVar(&o.V3, "v3", o.V3, "TPU-v3 count (group B)")
	flag.StringVar(&o.Strategy, "strategy", o.Strategy, "plan source: dp, owt, hypar, accpar (accpar is the nine-variant portfolio, as in accpar -compare)")
	flag.BoolVar(&o.Overlap, "overlap", o.Overlap, "allow communication/computation overlap")
	flag.BoolVar(&o.array, "array", false, "run the array-level simulation over all leaves instead of the two-group DES")
	flag.StringVar(&o.Faults, "faults", o.Faults, "fault scenario, e.g. slowdown:0=2.0,transient:1=0.05@0.001,loss:1=0.25")
	flag.Int64Var(&o.Seed, "seed", o.Seed, "fault injection seed")
	flag.Float64Var(&o.Ckpt, "ckpt", o.Ckpt, "checkpoint-restart overhead in seconds charged on group loss")
	flag.BoolVar(&o.replan, "replan", false, "replan against the degraded specs and print the resilience report (needs -faults)")
	flag.StringVar(&o.metricsOut, "metrics-out", "", "write the metrics registry to this file (expvar-style text for .txt, JSON otherwise)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome Trace Event Format JSON trace (planner spans + simulated timelines) to this file, loadable in Perfetto or chrome://tracing")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("accpar-sim"))
		return
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "accpar-sim:", err)
		os.Exit(1)
	}
}

func run(o opts) error {
	if o.replan && o.Faults == "" {
		return fmt.Errorf("-replan needs a -faults scenario to replan against")
	}
	if o.Faults != "" && o.array {
		return fmt.Errorf("-faults applies to the two-group DES, not the -array simulation")
	}
	net, groups, st, scenario, err := o.Experiment()
	if err != nil {
		return err
	}
	cfg := accpar.SimConfig{OverlapComm: o.Overlap}

	// -trace-out attaches the process tracer (planner spans) and records
	// the simulated timelines to merge into the same document. Neither
	// observation changes plans or simulated times.
	var rec *accpar.TraceRecorder
	if o.traceOut != "" {
		rec = accpar.StartTrace()
		cfg.RecordTimeline = true
	}
	flushObs := func() error {
		if rec != nil {
			rec.Stop()
			if err := rec.SaveFile(o.traceOut); err != nil {
				return err
			}
			fmt.Printf("\ntrace written to %s (open in Perfetto or chrome://tracing)\n", o.traceOut)
		}
		if o.metricsOut != "" {
			if err := accpar.SaveMetricsFile(o.metricsOut); err != nil {
				return err
			}
			fmt.Printf("metrics written to %s\n", o.metricsOut)
		}
		return nil
	}

	// Planning runs through a session so -replan searches on its plan
	// cache, where the degraded search reuses the pristine one's
	// subtrees.
	sess := accpar.NewSession(0)

	if o.replan {
		rep, err := sess.Resilience(net, groups, st, *scenario, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("model: %s  batch: %d  strategy: %v  array: %s + %s\n\n",
			o.Model, o.Batch, st, rep.MachineNames[0], rep.MachineNames[1])
		fmt.Print(rep.String())
		if rec != nil {
			for _, r := range []struct {
				label string
				res   *accpar.SimResult
			}{{"sim: fault-free", rep.FaultFree}, {"sim: stale", rep.Stale}, {"sim: replanned", rep.Replanned}} {
				if err := rec.AddSimTimeline(r.res, rep.MachineNames, r.label); err != nil {
					return err
				}
			}
		}
		return flushObs()
	}

	arr, err := accpar.HeterogeneousArray(groups...)
	if err != nil {
		return err
	}
	plan, err := sess.Partition(net, arr, st)
	if err != nil {
		return err
	}
	if o.array {
		if err := runArray(plan, arr, o, st); err != nil {
			return err
		}
		// The array-level simulator has no two-group timeline; the trace
		// carries the planner spans only.
		return flushObs()
	}
	types := plan.Root.Types
	alpha := plan.Root.Alpha

	a := accpar.GroupMachine(groups[0].Spec, groups[0].Count)
	b := accpar.GroupMachine(groups[1].Spec, groups[1].Count)
	cfg.Faults = scenario
	res, err := accpar.Simulate(net, types, alpha, a, b, cfg)
	if err != nil {
		return err
	}

	fmt.Printf("model: %s  batch: %d  strategy: %v  alpha: %.3f  overlap: %v\n\n", o.Model, o.Batch, st, alpha, o.Overlap)
	if scenario != nil {
		fmt.Printf("faults: %s (seed %d)\n\n", scenario.String(), scenario.Seed)
	}
	fmt.Printf("simulated iteration time: %.6g s  (%d tasks)\n", res.Time, res.Tasks)
	fmt.Printf("analytic root-split view: %.6g s\n\n", plan.Time())
	for m, name := range []string{a.Name, b.Name} {
		fmt.Printf("%-14s compute busy %.4gs (util %.1f%%)  net busy %.4gs  traffic %.4g B  peak mem %.4g GB (fits: %v)\n",
			name, res.ComputeBusy[m], 100*res.ComputeUtil[m], res.NetBusy[m],
			res.RemoteBytes[m], float64(res.PeakMemBytes[m])/(1<<30), res.MemOK[m])
	}
	if scenario != nil {
		fmt.Println()
		for m, name := range []string{a.Name, b.Name} {
			fmt.Printf("%-14s retries %d  lost time %.4g s\n", name, res.Retries[m], res.LostTime[m])
		}
		if res.RestartOverhead > 0 {
			fmt.Printf("checkpoint-restart overhead: %.4g s\n", res.RestartOverhead)
		}
	}
	if rec != nil {
		if err := rec.AddSimTimeline(res, [2]string{a.Name, b.Name}, "simulator"); err != nil {
			return err
		}
	}
	return flushObs()
}
