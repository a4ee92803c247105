// Package autotune answers the deployment questions a user of the
// partitioner faces after the paper's algorithm has done its part: what
// mini-batch size maximizes training throughput subject to memory, and how
// deep a hierarchy is worth configuring. Both searches drive the AccPar
// engine repeatedly and compare plans under the one cost model.
package autotune

import (
	"context"
	"fmt"

	"accpar/internal/core"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/models"
)

// BatchChoice is one evaluated batch size.
type BatchChoice struct {
	Batch      int
	Time       float64
	Throughput float64
	MemoryOK   bool
	PeakBytes  int64
}

// BatchResult is the outcome of TuneBatch.
type BatchResult struct {
	// Best is the feasible choice with the highest throughput.
	Best BatchChoice
	// Choices lists every evaluated point, ascending batch.
	Choices []BatchChoice
}

// TuneBatch sweeps power-of-two batch sizes in [minBatch, maxBatch] for
// the model on the array, partitions each with AccPar, and returns the
// highest-throughput batch whose plan fits every leaf's HBM. Every search
// seeds from and feeds cache (nil for the uncached sweep). Batch sizes
// change every subproblem's dims, so one cold sweep shares little with
// itself — but a repeated or replayed sweep (the deployment loop
// re-tuning after every fleet change) resolves entirely from a warm
// cache.
func TuneBatch(model string, tree *hardware.Tree, minBatch, maxBatch int, cache *core.SharedCache) (*BatchResult, error) {
	if minBatch < 1 || maxBatch < minBatch {
		return nil, fmt.Errorf("autotune: invalid batch range [%d,%d]", minBatch, maxBatch)
	}
	opts := accParCached(cache)
	res := &BatchResult{}
	found := false
	for b := minBatch; b <= maxBatch; b *= 2 {
		net, err := models.BuildNetwork(model, b)
		if err != nil {
			return nil, err
		}
		plan, err := core.PartitionCtx(context.TODO(), net, tree, opts...)
		if err != nil {
			return nil, err
		}
		mem := plan.Memory()
		c := BatchChoice{
			Batch:      b,
			Time:       plan.Time(),
			Throughput: plan.Throughput(),
			MemoryOK:   mem.OK,
			PeakBytes:  mem.PeakResidencyBytes,
		}
		res.Choices = append(res.Choices, c)
		if c.MemoryOK && (!found || c.Throughput > res.Best.Throughput) {
			res.Best = c
			found = true
		}
	}
	if !found {
		return res, fmt.Errorf("autotune: no batch in [%d,%d] fits memory", minBatch, maxBatch)
	}
	return res, nil
}

// DepthChoice is one evaluated hierarchy-level budget.
type DepthChoice struct {
	Levels     int
	Time       float64
	Throughput float64
}

// DepthResult is the outcome of TuneDepth.
type DepthResult struct {
	Best    DepthChoice
	Choices []DepthChoice
}

// TuneDepth sweeps hierarchy-level budgets from 1 to the array's full
// depth and returns the budget with the highest AccPar throughput. Deeper
// hierarchies trade more explicit partitioning decisions (Figure 8's
// x-axis) against more communication levels. Every search seeds from and
// feeds cache (nil for the uncached sweep); depth budgets share their
// upper tree levels' subtrees, so even a cold depth sweep reuses work and
// a warm one resolves entirely from the cache.
func TuneDepth(net *dnn.Network, arr *hardware.Array, cache *core.SharedCache) (*DepthResult, error) {
	opts := accParCached(cache)
	full, err := hardware.BuildTree(arr, 64)
	if err != nil {
		return nil, err
	}
	maxLevels := full.Depth() - 1
	if maxLevels < 1 {
		maxLevels = 1
	}
	res := &DepthResult{}
	for levels := 1; levels <= maxLevels; levels++ {
		tree, err := hardware.BuildTree(arr, levels)
		if err != nil {
			return nil, err
		}
		plan, err := core.PartitionCtx(context.TODO(), net, tree, opts...)
		if err != nil {
			return nil, err
		}
		c := DepthChoice{Levels: levels, Time: plan.Time(), Throughput: plan.Throughput()}
		res.Choices = append(res.Choices, c)
		if len(res.Choices) == 1 || c.Throughput > res.Best.Throughput {
			res.Best = c
		}
	}
	return res, nil
}

// accParCached is the AccPar portfolio with every variant searching
// through cache.
func accParCached(cache *core.SharedCache) []core.Options {
	opts := core.StrategyAccPar.Variants()
	for i := range opts {
		opts[i].Cache = cache
	}
	return opts
}
