package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/models"
	"accpar/internal/parallel"
	"accpar/internal/workload"
)

// censusCase is one portfolio input: a network on a tree under a memory
// mode and a phase mode.
type censusCase struct {
	name string
	// model is true for a built-in model, false for a random network.
	model bool
	net   *dnn.Network
	tree  *hardware.Tree
	mem   MemoryMode
	mode  Mode
}

// censusResult is one case's variant times, in Variants order.
type censusResult struct {
	c     censusCase
	times []float64
}

// censusCases lists the census inputs: 11 models (the evaluation order,
// inception and mlp) at batch 64 and 512 on 10 fleets, with memory off and
// penalize, in training and inference (880 cases); and 150 random
// internal/workload networks on 4 fleets, memory off, training (600).
func censusCases(t *testing.T) []censusCase {
	t.Helper()
	fleets := []goldenFleet{
		{1, 1, 1}, {3, 5, 1}, {8, 8, 1}, {37, 21, 1}, {32, 96, 1},
		{100, 28, 1}, {128, 128, 1}, {16, 240, 1}, {8, 8, 64}, {32, 32, 256},
	}
	trees := make([]*hardware.Tree, len(fleets))
	for i, fl := range fleets {
		trees[i] = fleetTree(t, fl.v2, fl.v3, fl.hbmDiv)
	}
	var cases []censusCase
	for _, m := range append(models.EvaluationOrder(), "inception", "mlp") {
		for _, batch := range []int{64, 512} {
			net := buildNet(t, m, batch)
			for i, fl := range fleets {
				for _, mem := range []MemoryMode{MemoryOff, MemoryPenalize} {
					for _, mode := range []Mode{ModeTraining, ModeInference} {
						cases = append(cases, censusCase{
							name:  fmt.Sprintf("%s/%d on %s/%v/%v", m, batch, fl, mem, mode),
							model: true, net: net, tree: trees[i], mem: mem, mode: mode,
						})
					}
				}
			}
		}
	}
	for seed := int64(1); seed <= 150; seed++ {
		net, err := workload.GenerateNetwork(seed, workload.Config{ResidualProb: 0.5, MaxLayers: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i, fl := range fleets[1:5] {
			cases = append(cases, censusCase{
				name: fmt.Sprintf("random %d on %s", seed, fl), net: net, tree: trees[1+i],
				mem: MemoryOff, mode: ModeTraining,
			})
		}
	}
	return cases
}

// TestPortfolioCensus counts, for each StrategyAccPar variant, the census
// cases whose portfolio it wins, and logs the table that EXPERIMENTS.md
// ("Portfolio census") reports. Every variant searches each case
// serially and on its own, with no shared cache. The winner is the
// lowest plan time, the earlier variant on ties, as the portfolio merge
// picks it; a variant wins "alone" when every other variant's time is
// strictly higher, and its lead is how far the next variant trails it.
// The test also checks that the portfolio search picks each case's
// winner. It runs 14,800 searches, a few seconds on two cores, so
// -short skips it; run it with
//
//	go test -run TestPortfolioCensus -v ./internal/core
func TestPortfolioCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("portfolio census: 14,800 searches")
	}
	variants := StrategyAccPar.Variants()
	cases := censusCases(t)
	results := make([]censusResult, len(cases))
	err := parallel.ForEach(len(cases), 0, func(i int) error {
		c := cases[i]
		res := censusResult{c: c, times: make([]float64, len(variants))}
		opts := make([]Options, len(variants))
		for vi, base := range variants {
			opt := base
			opt.MemoryLimit, opt.Mode, opt.Parallelism = c.mem, c.mode, 1
			opts[vi] = opt
			plan, err := PartitionCtx(context.Background(), c.net, c.tree, opt)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", c.name, goldenVariantNames[vi], err)
			}
			res.times[vi] = plan.Time()
		}
		_, best, err := PartitionAllCtx(context.Background(), c.net, c.tree, opts...)
		if err != nil {
			return fmt.Errorf("%s portfolio: %w", c.name, err)
		}
		if w := censusWinner(res.times); best != w {
			return fmt.Errorf("%s: portfolio picked %s, the serial scan %s", c.name, goldenVariantNames[best], goldenVariantNames[w])
		}
		results[i] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	type tally struct {
		wins, alone int
		lead        float64 // largest lead among the alone wins
		leadCase    string
		modelLead   float64 // the same among built-in models
		modelCase   string
	}
	tallies := make([]tally, len(variants))
	for _, r := range results {
		w := censusWinner(r.times)
		tl := &tallies[w]
		tl.wins++
		next := math.Inf(1)
		for vi, tm := range r.times {
			if vi != w && tm < next {
				next = tm
			}
		}
		if next <= r.times[w] {
			continue
		}
		tl.alone++
		lead := next/r.times[w] - 1
		if lead > tl.lead {
			tl.lead, tl.leadCase = lead, r.c.name
		}
		if r.c.model && lead > tl.modelLead {
			tl.modelLead, tl.modelCase = lead, r.c.name
		}
	}
	order := make([]int, len(variants))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tallies[order[a]].wins > tallies[order[b]].wins })
	var b strings.Builder
	fmt.Fprintf(&b, "portfolio census over %d cases\n", len(results))
	fmt.Fprintf(&b, "%-12s %6s %6s  %s\n", "variant", "wins", "alone", "largest lead (case); largest on a built-in model")
	for _, vi := range order {
		tl := tallies[vi]
		fmt.Fprintf(&b, "%-12s %6d %6d", goldenVariantNames[vi], tl.wins, tl.alone)
		if tl.alone > 0 {
			fmt.Fprintf(&b, "  %.1f%% (%s)", 100*tl.lead, tl.leadCase)
			if tl.modelCase != "" {
				fmt.Fprintf(&b, "; %.1f%% (%s)", 100*tl.modelLead, tl.modelCase)
			}
		}
		b.WriteByte('\n')
	}
	t.Log(b.String())
}

// censusWinner returns the index of the lowest time, the earliest on ties.
func censusWinner(times []float64) int {
	w := 0
	for i, tm := range times {
		if tm < times[w] {
			w = i
		}
	}
	return w
}
