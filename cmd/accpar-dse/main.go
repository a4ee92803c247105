// Command accpar-dse explores the fleet design space: it enumerates
// candidate accelerator fleets (kind mixes, counts, hierarchy depths,
// link-bandwidth tiers) under a budget, plans every candidate against
// one workload through a shared batch planning engine, and reports the
// Pareto frontier over makespan, fleet cost and resilience (post-fault
// makespan after degradation-aware replanning).
//
// Usage:
//
//	accpar-dse -model resnet50 -batch 512 -budget 200
//	accpar-dse -kinds tpu-v2=1.0,tpu-v3=2.2 -counts 0,8,16,32 -out frontier.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"accpar"
	"accpar/internal/dse"
	"accpar/internal/hardware"
	"accpar/internal/obs"
)

func main() {
	var (
		model      = flag.String("model", "resnet50", "model name: "+strings.Join(accpar.Models(), ", "))
		batch      = flag.Int("batch", 512, "mini-batch size")
		kinds      = flag.String("kinds", "tpu-v2=1.0,tpu-v3=2.2", "procurable kinds as name=price pairs; names come from the hardware presets")
		counts     = flag.String("counts", "0,4,8,16,32", "per-kind board counts to try (0 omits the kind)")
		levels     = flag.String("levels", "2,8,64", "hierarchy level caps to try")
		netScales  = flag.String("net-scales", "1,2", "link-bandwidth scale tiers to try")
		budget     = flag.Float64("budget", 0, "fleet cost cap; 0 = unlimited")
		maxCand    = flag.Int("max-candidates", 0, "cap the enumeration after budget filtering; 0 = unlimited")
		fault      = flag.String("fault", "slowdown:0=2.0", "resilience fault scenario (faults.Parse syntax; group indices name kinds); empty disables the resilience axis")
		workers    = flag.Int("workers", 0, "candidate-level worker pool; 0 = GOMAXPROCS, 1 = serial")
		memory     = flag.String("memory", "off", "HBM capacity constraint during candidate planning: off, reject, penalize; unfittable fleets are excluded from the frontier")
		out        = flag.String("out", "", "write the deterministic frontier artifact (JSON) to this file")
		metricsOut = flag.String("metrics-out", "", "write the metrics registry to this file (expvar-style text for .txt, JSON otherwise)")
		version    = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(obs.VersionString("accpar-dse"))
		return
	}
	if err := run(os.Stdout, config{
		model: *model, batch: *batch,
		kinds: *kinds, counts: *counts, levels: *levels, netScales: *netScales,
		budget: *budget, maxCandidates: *maxCand,
		fault: *fault, workers: *workers, memory: *memory,
		out: *out, metricsOut: *metricsOut,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "accpar-dse:", err)
		os.Exit(1)
	}
}

// config carries the parsed flag values; run is separated from main so
// tests can drive the whole tool in-process.
type config struct {
	model         string
	batch         int
	kinds         string
	counts        string
	levels        string
	netScales     string
	budget        float64
	maxCandidates int
	fault         string
	workers       int
	memory        string
	out           string
	metricsOut    string
}

// parseKinds resolves "name=price,name=price" against the hardware
// presets.
func parseKinds(s string) ([]dse.Kind, error) {
	presets := hardware.Presets()
	var out []dse.Kind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, priceStr, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("kind %q: want name=price", part)
		}
		spec, found := presets[name]
		if !found {
			known := make([]string, 0, len(presets))
			for k := range presets {
				known = append(known, k)
			}
			sort.Strings(known)
			return nil, fmt.Errorf("unknown kind %q; presets: %s", name, strings.Join(known, ", "))
		}
		price, err := strconv.ParseFloat(priceStr, 64)
		if err != nil {
			return nil, fmt.Errorf("kind %q: bad price: %v", name, err)
		}
		out = append(out, dse.Kind{Name: name, Spec: spec, Price: price})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no kinds given")
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func run(w io.Writer, cfg config) error {
	kindList, err := parseKinds(cfg.kinds)
	if err != nil {
		return err
	}
	countList, err := parseInts(cfg.counts)
	if err != nil {
		return fmt.Errorf("-counts: %v", err)
	}
	levelList, err := parseInts(cfg.levels)
	if err != nil {
		return fmt.Errorf("-levels: %v", err)
	}
	scaleList, err := parseFloats(cfg.netScales)
	if err != nil {
		return fmt.Errorf("-net-scales: %v", err)
	}
	space := &dse.Space{
		Kinds:         kindList,
		Counts:        countList,
		Levels:        levelList,
		NetScales:     scaleList,
		Budget:        cfg.budget,
		MaxCandidates: cfg.maxCandidates,
	}

	mem, err := accpar.ParseMemoryMode(cfg.memory)
	if err != nil {
		return err
	}

	rep, err := dse.Sweep(context.Background(), space, dse.Config{
		Model:   cfg.model,
		Batch:   cfg.batch,
		Fault:   cfg.fault,
		Workers: cfg.workers,
		Memory:  mem,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "model %s  batch %d  fault %q\n", rep.Model, rep.Batch, rep.Fault)
	fmt.Fprintf(w, "candidates %d  evaluated %d  infeasible %d  frontier %d\n\n",
		rep.Candidates, rep.Evaluated, rep.Infeasible, len(rep.Frontier))
	fmt.Fprintf(w, "%-36s %10s %14s %14s  %s\n", "fleet", "cost", "makespan (s)", "resilience (s)", "strategy")
	for _, f := range rep.Frontier {
		fmt.Fprintf(w, "%-36s %10.4g %14.6g %14.6g  %s\n", f.Name, f.Cost, f.Makespan, f.Resilience, f.Strategy)
	}

	if cfg.out != "" {
		f, err := os.Create(cfg.out)
		if err != nil {
			return err
		}
		err = rep.WriteFrontierJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "\nfrontier written to", cfg.out)
	}
	if cfg.metricsOut != "" {
		if err := accpar.SaveMetricsFile(cfg.metricsOut); err != nil {
			return err
		}
		fmt.Fprintln(w, "metrics written to", cfg.metricsOut)
	}
	return nil
}
