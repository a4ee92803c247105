package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"accpar/internal/dnn"
	"accpar/internal/hardware"
)

// BatchEngine plans many hardware trees against one (network, options)
// pair while sharing a single structural memo across all of them. The
// memo keys subproblems by (subtree content digest, effective dims), so
// a subtree two candidate fleets have in common — the same accelerator
// specs under the same link wiring, wherever it hangs in either tree,
// at whatever depth (digests are level-independent) — is solved once
// for the whole sweep. This is what makes fleet design-space exploration
// cheap: candidates within a sweep differ in counts, mixes and
// bandwidths but are assembled from the same few spec kinds, so their
// hierarchies overlap enormously — the kind-pure halves of every mixed
// fleet, and each fleet's pristine subtrees untouched by a modelled
// fault, recur across the whole candidate grid.
//
// Unlike a SharedCache, which serves a long-lived process and therefore
// caps its retained state, a BatchEngine retains everything for the
// duration of one sweep and is discarded with it; Options.Cache is
// ignored. Every subproblem is pure, so plans are byte-identical to a
// standalone PartitionCtx run with the same options — caching and
// concurrency change wall-clock only, never decisions — and the engine
// is safe for concurrent PlanCtx calls across a worker pool.
type BatchEngine struct {
	base *planner
	// epoch numbers candidates: each engine call stamps the memo entries
	// it touches, so a hit on an entry last touched under a different
	// epoch is cross-fleet amortization (core.memo_cross_fleet_hits).
	epoch atomic.Int64
}

// NewBatchEngine builds a batch engine for one option set.
func NewBatchEngine(net *dnn.Network, opt Options) (*BatchEngine, error) {
	opt.Cache = nil
	p, err := newPlanner(context.Background(), net, opt)
	if err != nil {
		return nil, err
	}
	return &BatchEngine{base: p}, nil
}

// forCandidate rebinds the retained planner to one candidate evaluation:
// fresh epoch, per-call context, batch hit accounting.
func (e *BatchEngine) forCandidate(ctx context.Context) *planner {
	pc := e.base.forCall(ctx, e.epoch.Add(1))
	pc.batch = true
	return pc
}

// PlanCtx partitions one candidate tree through the shared memo. The
// produced plan is byte-identical to PartitionCtx with the engine's
// options; an aborted call reports ErrCanceled or ErrDeadlineExceeded
// and leaves the memo consistent (only completed subproblems publish).
func (e *BatchEngine) PlanCtx(ctx context.Context, tree *hardware.Tree) (*Plan, error) {
	return e.forCandidate(ctx).plan(tree)
}

// ReplanTimeCtx models the candidate's post-fault operating point: the
// adopted plan of ReplanCtx's pipeline — pristine plan, its decisions
// re-costed on degraded (stale), a fresh degradation-aware partition,
// the faster of the two — run through the sweep-shared memo. The
// pristine plan is the root hit PlanCtx left behind, and degraded
// subtrees common to many candidates are solved once.
func (e *BatchEngine) ReplanTimeCtx(ctx context.Context, pristine, degraded *hardware.Tree) (float64, error) {
	rep, err := e.forCandidate(ctx).replan(pristine, degraded)
	if err != nil {
		return 0, err
	}
	return rep.Replanned.Time(), nil
}

// BatchSet is the portfolio counterpart of BatchEngine: one engine per
// option set and PartitionCtx's winner rule (bestOf), so its plans are
// byte-identical to PartitionCtx over the same option sets — over
// StrategyAccPar.Variants(), to the production AccPar search.
type BatchSet struct {
	engines []*BatchEngine
}

// NewBatchSet builds one retained engine per option set.
func NewBatchSet(net *dnn.Network, opts ...Options) (*BatchSet, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("core: BatchSet needs at least one option set")
	}
	engines := make([]*BatchEngine, len(opts))
	for i, opt := range opts {
		e, err := NewBatchEngine(net, opt)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}
	return &BatchSet{engines: engines}, nil
}

// PlanBestCtx partitions tree with every option set and returns the
// winning plan plus its variant index. Variants run serially within one
// call — a design-space sweep gets its concurrency from evaluating many
// candidates at once, and per-candidate serial variants keep the memo
// hit pattern deterministic in tests — but concurrent PlanBestCtx calls
// are safe.
func (s *BatchSet) PlanBestCtx(ctx context.Context, tree *hardware.Tree) (*Plan, int, error) {
	return bestOf(ctx, len(s.engines), 1, func(i int) (*Plan, error) {
		return s.engines[i].PlanCtx(ctx, tree)
	})
}

// ReplanTimeCtx models the post-fault makespan of the winning variant's
// plan for pristine on the degraded tree; variant must be the index
// PlanBestCtx returned for pristine.
func (s *BatchSet) ReplanTimeCtx(ctx context.Context, pristine *hardware.Tree, variant int, degraded *hardware.Tree) (float64, error) {
	if variant < 0 || variant >= len(s.engines) {
		return 0, fmt.Errorf("core: variant %d out of range [0,%d)", variant, len(s.engines))
	}
	return s.engines[variant].ReplanTimeCtx(ctx, pristine, degraded)
}
