package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// The bench regression gate compares a freshly measured BENCH_PLANNER
// report against a committed baseline and fails on significant slowdowns,
// so a planner or simulator performance regression breaks CI instead of
// landing silently.

// gatePrefixes selects the entries the gate compares: the planner and
// simulator benchmarks plus the replan-after-fault paths (full search,
// incremental, recurrent) — a regression in the plan cache's reuse of
// retained subproblems is exactly the kind of slowdown the gate exists to catch. Cache
// cold/warm entries are excluded — their timings measure cache state,
// not code speed, and the warm side is nanoseconds-scale noise.
var gatePrefixes = []string{"PartitionHierarchical/", "PartitionConstrained/", "Simulate/", "ReplanAfterFault/", "DSESweep/"}

// gated reports whether the gate compares a benchmark entry.
func gated(name string) bool {
	for _, p := range gatePrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// gateLine is one compared benchmark.
type gateLine struct {
	name                    string
	baseNs, freshNs         float64
	baseAllocs, freshAllocs int64
	// ratio is freshNs / baseNs (>1 = slower).
	ratio float64
	fail  bool
	why   string
}

// allocSlack is the absolute allocs/op headroom granted on top of the
// relative tolerance, so single-digit-alloc entries don't fail on one
// incidental allocation.
const allocSlack = 16

// dseMinSpeedup is the amortization floor the shared design-space sweep
// must hold over independent cold per-candidate searches. Unlike the
// relative ns/op comparisons, this gates the fresh report against an
// absolute target: losing the sweep's plan cache, shared across
// candidate fleets, is a regression even if both sweep entries slow down
// in proportion.
const dseMinSpeedup = 5.0

// memMaxOverhead is the design ceiling on the non-binding reject-mode
// cost of the memory-constrained search (PartitionConstrained reject
// ns/op over off ns/op, minus one): when every plan fits, trying the
// exact unconstrained solution first at each split must keep the
// constraint near-free. Like dseMinSpeedup this gates the fresh report
// against an absolute target rather than a baseline ratio.
const memMaxOverhead = 0.03

// memOverheadSlack is the extra headroom granted over memMaxOverhead
// for run-to-run ns/op noise between the two back-to-back measurements
// on shared CI runners; a real constant-factor regression in the
// feasibility bookkeeping clears it easily.
const memOverheadSlack = 0.12

// memOverhead extracts the fresh report's PartitionConstrained
// reject/off ns/op ratio; ok is false when either entry is absent.
func memOverhead(r *BenchReport) (ratio float64, ok bool) {
	var offNs, rejNs float64
	for _, e := range r.Benchmarks {
		if !strings.HasPrefix(e.Name, "PartitionConstrained/") {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name, "/off"):
			offNs = e.NsPerOp
		case strings.HasSuffix(e.Name, "/reject"):
			rejNs = e.NsPerOp
		}
	}
	if offNs <= 0 || rejNs <= 0 {
		return 0, false
	}
	return rejNs / offNs, true
}

// dseSpeedup extracts the fresh report's DSESweep cold/shared ns/op
// ratio; ok is false when either entry is absent.
func dseSpeedup(r *BenchReport) (ratio float64, ok bool) {
	var coldNs, sharedNs float64
	for _, e := range r.Benchmarks {
		if !strings.HasPrefix(e.Name, "DSESweep/") {
			continue
		}
		switch {
		case strings.HasSuffix(e.Name, "/cold"):
			coldNs = e.NsPerOp
		case strings.HasSuffix(e.Name, "/shared"):
			sharedNs = e.NsPerOp
		}
	}
	if coldNs <= 0 || sharedNs <= 0 {
		return 0, false
	}
	return coldNs / sharedNs, true
}

// compareReports gates every baseline planner/simulator entry against the
// fresh report. A fresh report missing a gated baseline entry fails — a
// silently dropped benchmark must not pass the gate.
func compareReports(fresh, base *BenchReport, tol float64) ([]gateLine, bool) {
	byName := make(map[string]BenchEntry, len(fresh.Benchmarks))
	for _, e := range fresh.Benchmarks {
		byName[e.Name] = e
	}
	var lines []gateLine
	ok := true
	for _, b := range base.Benchmarks {
		if !gated(b.Name) {
			continue
		}
		l := gateLine{name: b.Name, baseNs: b.NsPerOp, baseAllocs: b.AllocsPerOp}
		f, found := byName[b.Name]
		switch {
		case !found:
			l.fail, l.why = true, "missing from fresh report"
		default:
			l.freshNs, l.freshAllocs = f.NsPerOp, f.AllocsPerOp
			if b.NsPerOp > 0 {
				l.ratio = f.NsPerOp / b.NsPerOp
			}
			if l.ratio > 1+tol {
				l.fail = true
				l.why = fmt.Sprintf("%.0f%% slower than baseline (tolerance %.0f%%)", 100*(l.ratio-1), 100*tol)
			} else if float64(f.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol)+allocSlack {
				l.fail = true
				l.why = fmt.Sprintf("allocs/op %d vs baseline %d", f.AllocsPerOp, b.AllocsPerOp)
			}
		}
		if l.fail {
			ok = false
		}
		lines = append(lines, l)
	}
	return lines, ok
}

// readReport decodes a BENCH_PLANNER-format report file.
func readReport(path string) (*BenchReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r BenchReport
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// runGate compares the fresh report at freshPath against the baseline and
// errors when any gated entry regresses beyond the tolerance.
func runGate(freshPath, basePath string, tol float64) error {
	fresh, err := readReport(freshPath)
	if err != nil {
		return err
	}
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	lines, ok := compareReports(fresh, base, tol)
	if len(lines) == 0 {
		return fmt.Errorf("baseline %s has no gated benchmark entries", basePath)
	}
	fmt.Printf("bench gate: %s vs baseline %s (tolerance %.0f%%)\n\n", freshPath, basePath, 100*tol)
	fmt.Printf("%-44s %14s %14s %8s\n", "benchmark", "baseline ns/op", "fresh ns/op", "ratio")
	for _, l := range lines {
		status := ""
		if l.fail {
			status = "  FAIL: " + l.why
		}
		fmt.Printf("%-44s %14.0f %14.0f %8.2f%s\n", l.name, l.baseNs, l.freshNs, l.ratio, status)
	}
	var failed []string
	if !ok {
		// Enumerate every regressing entry: one run surfaces the full set,
		// so a multi-entry regression doesn't take several CI round-trips
		// to map out.
		for _, l := range lines {
			if l.fail {
				failed = append(failed, fmt.Sprintf("%s (%s)", l.name, l.why))
			}
		}
	}
	if ratio, present := dseSpeedup(fresh); present {
		fmt.Printf("\ndse sweep amortization: %.1fx (floor %.0fx)\n", ratio, dseMinSpeedup)
		if ratio < dseMinSpeedup {
			failed = append(failed, fmt.Sprintf("DSESweep shared speedup %.1fx below the %.0fx floor", ratio, dseMinSpeedup))
		}
	}
	if ratio, present := memOverhead(fresh); present {
		fmt.Printf("non-binding memory-constraint overhead: %.1f%% (ceiling %.0f%% + %.0f%% noise slack)\n",
			100*(ratio-1), 100*memMaxOverhead, 100*memOverheadSlack)
		if ratio > 1+memMaxOverhead+memOverheadSlack {
			failed = append(failed, fmt.Sprintf("PartitionConstrained non-binding overhead %.1f%% above the %.0f%% ceiling", 100*(ratio-1), 100*memMaxOverhead))
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("bench gate failed: %d regressions: %s", len(failed), strings.Join(failed, "; "))
	}
	fmt.Println("\nbench gate passed")
	return nil
}
