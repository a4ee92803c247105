package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func report(entries ...BenchEntry) *BenchReport {
	return &BenchReport{GoMaxProcs: 1, Benchmarks: entries}
}

func writeReport(t *testing.T, r *BenchReport) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReportsPassAndFail(t *testing.T) {
	base := report(
		BenchEntry{Name: "PartitionHierarchical/resnet50/parallel", NsPerOp: 1000, AllocsPerOp: 100},
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50},
		BenchEntry{Name: "SpeedupSweep/resnet50/warm", NsPerOp: 10, AllocsPerOp: 1},
	)

	// Within tolerance: 20% slower passes a 25% gate.
	fresh := report(
		BenchEntry{Name: "PartitionHierarchical/resnet50/parallel", NsPerOp: 1200, AllocsPerOp: 100},
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50},
	)
	lines, ok := compareReports(fresh, base, 0.25)
	if !ok {
		t.Errorf("20%% slowdown must pass a 25%% gate: %+v", lines)
	}
	// The cache-warm entry is not gated even though the fresh report
	// dropped it.
	if len(lines) != 2 {
		t.Errorf("gated %d entries, want 2 (cache entries excluded)", len(lines))
	}

	// Beyond tolerance fails.
	slow := report(
		BenchEntry{Name: "PartitionHierarchical/resnet50/parallel", NsPerOp: 1300, AllocsPerOp: 100},
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50},
	)
	if _, ok := compareReports(slow, base, 0.25); ok {
		t.Error("30% slowdown must fail a 25% gate")
	}

	// An alloc regression fails even when ns/op holds.
	leaky := report(
		BenchEntry{Name: "PartitionHierarchical/resnet50/parallel", NsPerOp: 1000, AllocsPerOp: 500},
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50},
	)
	if _, ok := compareReports(leaky, base, 0.25); ok {
		t.Error("5x allocs/op must fail the gate")
	}

	// A missing gated entry fails.
	missing := report(
		BenchEntry{Name: "PartitionHierarchical/resnet50/parallel", NsPerOp: 1000, AllocsPerOp: 100},
	)
	if _, ok := compareReports(missing, base, 0.25); ok {
		t.Error("dropped Simulate entry must fail the gate")
	}
}

func TestCompareReportsGatesReplan(t *testing.T) {
	// The replan-after-fault entries are gated: losing the incremental
	// path's advantage (here 20x slower) must fail, and dropping the
	// entry from the fresh report must fail too.
	base := report(
		BenchEntry{Name: "ReplanAfterFault/resnet50/full", NsPerOp: 100000, AllocsPerOp: 5000},
		BenchEntry{Name: "ReplanAfterFault/resnet50/incremental", NsPerOp: 30000, AllocsPerOp: 2000},
		BenchEntry{Name: "ReplanAfterFault/resnet50/warm", NsPerOp: 500, AllocsPerOp: 100},
	)
	good := report(
		BenchEntry{Name: "ReplanAfterFault/resnet50/full", NsPerOp: 100000, AllocsPerOp: 5000},
		BenchEntry{Name: "ReplanAfterFault/resnet50/incremental", NsPerOp: 31000, AllocsPerOp: 2000},
		BenchEntry{Name: "ReplanAfterFault/resnet50/warm", NsPerOp: 520, AllocsPerOp: 100},
	)
	lines, ok := compareReports(good, base, 0.25)
	if !ok {
		t.Errorf("steady replan timings must pass: %+v", lines)
	}
	if len(lines) != 3 {
		t.Errorf("gated %d entries, want all 3 replan entries", len(lines))
	}

	// The warm path regressing to incremental-scale latency fails.
	regressed := report(
		BenchEntry{Name: "ReplanAfterFault/resnet50/full", NsPerOp: 100000, AllocsPerOp: 5000},
		BenchEntry{Name: "ReplanAfterFault/resnet50/incremental", NsPerOp: 30000, AllocsPerOp: 2000},
		BenchEntry{Name: "ReplanAfterFault/resnet50/warm", NsPerOp: 10000, AllocsPerOp: 100},
	)
	if _, ok := compareReports(regressed, base, 0.25); ok {
		t.Error("warm replan regressing 20x must fail the gate")
	}

	// Dropping the incremental entry fails.
	dropped := report(
		BenchEntry{Name: "ReplanAfterFault/resnet50/full", NsPerOp: 100000, AllocsPerOp: 5000},
		BenchEntry{Name: "ReplanAfterFault/resnet50/warm", NsPerOp: 500, AllocsPerOp: 100},
	)
	if _, ok := compareReports(dropped, base, 0.25); ok {
		t.Error("dropped incremental replan entry must fail the gate")
	}
}

// TestRunGateEnumeratesAllRegressions asserts the one-run contract: when
// several gated entries regress at once, the gate's error names every one
// of them, not just the first.
func TestRunGateEnumeratesAllRegressions(t *testing.T) {
	base := report(
		BenchEntry{Name: "PartitionHierarchical/resnet50/parallel", NsPerOp: 1000, AllocsPerOp: 100},
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50},
		BenchEntry{Name: "DSESweep/resnet50/shared", NsPerOp: 2000, AllocsPerOp: 200},
		BenchEntry{Name: "Simulate/alexnet", NsPerOp: 100, AllocsPerOp: 2},
	)
	// Three entries regress: two on ns/op, one dropped entirely.
	// Simulate/alexnet holds steady and must stay out of the error.
	fresh := report(
		BenchEntry{Name: "PartitionHierarchical/resnet50/parallel", NsPerOp: 9000, AllocsPerOp: 100},
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 5000, AllocsPerOp: 50},
		BenchEntry{Name: "Simulate/alexnet", NsPerOp: 100, AllocsPerOp: 2},
	)
	err := runGate(writeReport(t, fresh), writeReport(t, base), 0.25)
	if err == nil {
		t.Fatal("multi-entry regression must error")
	}
	msg := err.Error()
	for _, want := range []string{
		"PartitionHierarchical/resnet50/parallel",
		"Simulate/vgg16",
		"DSESweep/resnet50/shared",
		"3 regressions",
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("gate error missing %q:\n%s", want, msg)
		}
	}
	if strings.Contains(msg, "Simulate/alexnet") {
		t.Errorf("gate error names a passing entry:\n%s", msg)
	}
}

// TestRunGateDSESpeedupFloor: the fresh report's DSESweep cold/shared
// ratio is gated against an absolute floor, independent of the baseline.
func TestRunGateDSESpeedupFloor(t *testing.T) {
	base := report(
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50},
		BenchEntry{Name: "DSESweep/resnet50/cold", NsPerOp: 10000, AllocsPerOp: 100},
		BenchEntry{Name: "DSESweep/resnet50/shared", NsPerOp: 1000, AllocsPerOp: 100},
	)
	basePath := writeReport(t, base)

	// 10x amortization passes.
	good := report(
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50},
		BenchEntry{Name: "DSESweep/resnet50/cold", NsPerOp: 10000, AllocsPerOp: 100},
		BenchEntry{Name: "DSESweep/resnet50/shared", NsPerOp: 1000, AllocsPerOp: 100},
	)
	if err := runGate(writeReport(t, good), basePath, 0.25); err != nil {
		t.Errorf("10x amortization must pass: %v", err)
	}

	// The shared sweep decaying to 2x — even with both entries inside the
	// relative tolerance against a matching baseline — fails the floor.
	decayed := report(
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50},
		BenchEntry{Name: "DSESweep/resnet50/cold", NsPerOp: 10000, AllocsPerOp: 100},
		BenchEntry{Name: "DSESweep/resnet50/shared", NsPerOp: 5000, AllocsPerOp: 100},
	)
	decayedBase := writeReport(t, decayed)
	err := runGate(writeReport(t, decayed), decayedBase, 0.25)
	if err == nil {
		t.Fatal("2x amortization must fail the floor")
	}
	if !strings.Contains(err.Error(), "below the 5x floor") {
		t.Errorf("floor failure not reported: %v", err)
	}
}

// TestRunGateMemOverheadCeiling: the fresh report's PartitionConstrained
// reject/off ratio is gated against an absolute ceiling, independent of
// the baseline — the non-binding constraint staying near-free is part of
// its contract.
func TestRunGateMemOverheadCeiling(t *testing.T) {
	// 1% overhead passes.
	good := report(
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50},
		BenchEntry{Name: "PartitionConstrained/resnet50/off", NsPerOp: 10000, AllocsPerOp: 100},
		BenchEntry{Name: "PartitionConstrained/resnet50/reject", NsPerOp: 10100, AllocsPerOp: 100},
	)
	if err := runGate(writeReport(t, good), writeReport(t, good), 0.25); err != nil {
		t.Errorf("1%% overhead must pass: %v", err)
	}

	// 50% overhead fails the ceiling even against a matching baseline
	// (both entries compare 1.00 relative).
	costly := report(
		BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50},
		BenchEntry{Name: "PartitionConstrained/resnet50/off", NsPerOp: 10000, AllocsPerOp: 100},
		BenchEntry{Name: "PartitionConstrained/resnet50/reject", NsPerOp: 15000, AllocsPerOp: 100},
	)
	err := runGate(writeReport(t, costly), writeReport(t, costly), 0.25)
	if err == nil {
		t.Fatal("50% overhead must fail the ceiling")
	}
	if !strings.Contains(err.Error(), "above the 3% ceiling") {
		t.Errorf("ceiling failure not reported: %v", err)
	}
}

func TestCompareReportsAllocSlack(t *testing.T) {
	// Tiny absolute alloc counts get slack: 2 → 10 allocs/op is within
	// the absolute headroom even though the ratio is 5x.
	base := report(BenchEntry{Name: "Simulate/alexnet", NsPerOp: 100, AllocsPerOp: 2})
	fresh := report(BenchEntry{Name: "Simulate/alexnet", NsPerOp: 100, AllocsPerOp: 10})
	if _, ok := compareReports(fresh, base, 0.25); !ok {
		t.Error("small absolute alloc increase must pass via the slack")
	}
}

func TestRunGate(t *testing.T) {
	base := report(BenchEntry{Name: "Simulate/vgg16", NsPerOp: 500, AllocsPerOp: 50})
	good := report(BenchEntry{Name: "Simulate/vgg16", NsPerOp: 510, AllocsPerOp: 50})
	bad := report(BenchEntry{Name: "Simulate/vgg16", NsPerOp: 5000, AllocsPerOp: 50})

	basePath := writeReport(t, base)
	if err := runGate(writeReport(t, good), basePath, 0.25); err != nil {
		t.Errorf("good gate: %v", err)
	}
	if err := runGate(writeReport(t, bad), basePath, 0.25); err == nil {
		t.Error("10x slowdown must error")
	}
	if err := runGate(filepath.Join(t.TempDir(), "nope.json"), basePath, 0.25); err == nil {
		t.Error("missing fresh report must error")
	}
	// A baseline with nothing to gate is an error, not a silent pass.
	empty := writeReport(t, report(BenchEntry{Name: "SpeedupSweep/resnet50/warm", NsPerOp: 10}))
	if err := runGate(writeReport(t, good), empty, 0.25); err == nil {
		t.Error("baseline without gated entries must error")
	}
}
