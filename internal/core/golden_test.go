package core

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"accpar/internal/hardware"
	"accpar/internal/models"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/plan_digests.txt")

const digestFile = "testdata/plan_digests.txt"

// goldenVariantNames labels StrategyAccPar.Variants() by position.
var goldenVariantNames = []string{"accpar", "types-I-II", "types-I-III", "comm-only", "equal-ratio", "linearized", "hypar", "owt", "dp"}

// goldenFleet is a TPU-v2/v3 fleet whose board HBM is divided by hbmDiv
// (1 keeps Table 7's capacities). The shrunk fleet makes the memory
// constraint bind, so penalize mode exercises the λ-penalized DP.
type goldenFleet struct{ v2, v3, hbmDiv int }

func (f goldenFleet) String() string {
	if f.hbmDiv == 1 {
		return fmt.Sprintf("%d+%d", f.v2, f.v3)
	}
	return fmt.Sprintf("%d+%d/hbm-div%d", f.v2, f.v3, f.hbmDiv)
}

var goldenFleets = []goldenFleet{{8, 8, 1}, {32, 96, 1}, {128, 128, 1}, {8, 8, 64}, {8, 8, 256}}

// goldenPlanDigests plans every golden case and returns "case digest"
// lines, the digest being the SHA-256 of the plan's canonical JSON.
func goldenPlanDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	forEachGoldenPlan(t, func(name string, _ Options, _ *hardware.Tree, plan *Plan) {
		sum := sha256.Sum256(planJSON(t, plan))
		lines = append(lines, name+" "+hex.EncodeToString(sum[:]))
	})
	return lines
}

// forEachGoldenPlan plans every golden case serially, in digest-file
// order, and hands each plan to visit with its case name, options and
// hardware tree.
func forEachGoldenPlan(t *testing.T, visit func(name string, opt Options, tree *hardware.Tree, plan *Plan)) {
	t.Helper()
	variants := StrategyAccPar.Variants()
	if len(variants) != len(goldenVariantNames) {
		t.Fatalf("StrategyAccPar.Variants has %d entries, golden names %d", len(variants), len(goldenVariantNames))
	}
	for _, model := range append(models.EvaluationOrder(), "inception") {
		net := buildNet(t, model, 512)
		for _, fl := range goldenFleets {
			tree := fleetTree(t, fl.v2, fl.v3, fl.hbmDiv)
			for vi, base := range variants {
				for _, mem := range []MemoryMode{MemoryOff, MemoryPenalize} {
					for _, mode := range []Mode{ModeTraining, ModeInference} {
						opt := base
						opt.MemoryLimit = mem
						opt.Mode = mode
						opt.Parallelism = 1
						name := fmt.Sprintf("%s/%s/%s/%v/%v", model, fl, goldenVariantNames[vi], mem, mode)
						plan, err := PartitionCtx(context.Background(), net, tree, opt)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						visit(name, opt, tree, plan)
					}
				}
			}
		}
	}
}

// fleetTree builds the hierarchy over v2 TPU-v2 and v3 TPU-v3 boards,
// each board's HBM divided by hbmDiv.
func fleetTree(t *testing.T, v2, v3, hbmDiv int) *hardware.Tree {
	t.Helper()
	a, b := hardware.TPUv2(), hardware.TPUv3()
	a.HBMBytes /= int64(hbmDiv)
	b.HBMBytes /= int64(hbmDiv)
	arr, err := hardware.NewHeterogeneous(
		hardware.GroupSpec{Spec: a, Count: v2},
		hardware.GroupSpec{Spec: b, Count: v3})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// TestGoldenPlanDigests pins the plan bytes of every evaluation model
// (plus inception) on three fleets, under every portfolio variant, both
// memory modes that return a plan for every input, and both workload
// modes, against recorded digests (last regenerated when the Eq. 10
// bisection learned to find a falling balance). The equivalence suites
// compare search paths that all share the current runDP; this is the
// check that catches drift of the DP itself. Regenerate with
// -update-digests only for an intended change of plans.
func TestGoldenPlanDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("plans 1800 cold searches")
	}
	got := goldenPlanDigests(t)
	if *updateDigests {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d golden cases, %s has %d", len(got), digestFile, len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("digest mismatch:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... %d mismatches in total", bad)
	}
}
