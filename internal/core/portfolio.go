package core

import (
	"context"
	"errors"
	"fmt"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
	"accpar/internal/parallel"
)

// The hierarchical search is greedy across levels: each level's dynamic
// programming is exact (Eq. 9), but the dims it hands the next level depend
// on its choices, so a level-optimal assignment is not always
// subtree-optimal. Because AccPar's complete partition space strictly
// contains every baseline's space, a sound implementation must never emit a
// plan worse than a plan the restricted configurations can find. AccParVariants
// lists the restricted configurations whose greedy paths differ; PartitionBest
// evaluates all of them under the one true cost model and keeps the winner,
// restoring the containment guarantee the paper's claims rest on.

// AccParVariants returns the option sets the production AccPar search
// evaluates: the full configuration plus the restricted variants it
// subsumes (type-set restrictions, the communication-proxy objective, and
// the baselines themselves).
func AccParVariants() []Options {
	twoTypesII := AccPar()
	twoTypesII.Types = []cost.Type{cost.TypeI, cost.TypeII}
	twoTypesIII := AccPar()
	twoTypesIII.Types = []cost.Type{cost.TypeI, cost.TypeIII}
	commOnly := AccPar()
	commOnly.Objective = ObjectiveCommOnly
	equalRatio := AccPar()
	equalRatio.Ratio = RatioEqual
	linearized := AccPar()
	linearized.Linearize = true
	return []Options{
		AccPar(),
		twoTypesII,
		twoTypesIII,
		commOnly,
		equalRatio,
		linearized,
		HyPar(),
		OWT(),
		DataParallel(),
	}
}

// PartitionBest partitions the network with every option set and returns
// the plan with the lowest modelled iteration time. The option sets are
// independent searches, so they run across a worker pool; results land in
// per-slot storage and the winner is chosen by a serial scan — lowest
// time, earliest option set on ties — so the outcome matches the serial
// loop exactly. The pool stays serial when every option set asks for the
// serial reference path (Parallelism 1).
func PartitionBest(net *dnn.Network, tree *hardware.Tree, opts ...Options) (*Plan, error) {
	return PartitionBestCtx(context.Background(), net, tree, opts...)
}

// PartitionBestCtx is PartitionBest bound to a context: each variant's
// search polls ctx, and option sets not yet started when ctx is done are
// never dispatched. Aborts report ErrCanceled or ErrDeadlineExceeded.
func PartitionBestCtx(ctx context.Context, net *dnn.Network, tree *hardware.Tree, opts ...Options) (*Plan, error) {
	if len(opts) == 0 {
		return nil, fmt.Errorf("core: PartitionBest needs at least one option set")
	}
	// When the caller attached an audit recorder, each variant searches
	// into a private recorder and only the winner's decisions are adopted
	// — the audit then explains the plan actually returned, not a blend of
	// nine searches.
	var callerAudit *AuditRecorder
	var variantAudits []*AuditRecorder
	for _, opt := range opts {
		if opt.Audit != nil {
			callerAudit = opt.Audit
			break
		}
	}
	if callerAudit != nil {
		opts = append([]Options(nil), opts...)
		variantAudits = make([]*AuditRecorder, len(opts))
		for i := range opts {
			if opts[i].Audit != nil {
				variantAudits[i] = NewAuditRecorder()
				opts[i].Audit = variantAudits[i]
			}
		}
	}
	best, idx, err := bestOf(ctx, len(opts), portfolioWorkers(opts), func(i int) (*Plan, error) {
		return PartitionCtx(ctx, net, tree, opts[i])
	})
	if callerAudit == nil {
		return best, err
	}
	if err != nil {
		if errors.Is(err, ErrNoFeasiblePlan) {
			// No winner to attribute: keep the first audited variant's
			// records so infeasibility is still explainable.
			for _, va := range variantAudits {
				if va != nil {
					callerAudit.adopt(va)
					break
				}
			}
		}
		return nil, err
	}
	callerAudit.adopt(variantAudits[idx])
	best.audit = callerAudit
	return best, nil
}

// portfolioWorkers sizes a portfolio's worker pool: serial when every
// option set asks for the serial reference path (Parallelism 1), the
// default pool otherwise.
func portfolioWorkers(opts []Options) int {
	for _, opt := range opts {
		if opt.Parallelism != 1 {
			return 0
		}
	}
	return 1
}

// bestOf is the one portfolio winner rule. It runs variants 0..n-1
// through run on a pool of workers (1 runs them inline in index order)
// and returns the winner and its index: lowest modelled time, earliest
// variant on ties, so the outcome matches the serial loop exactly. A
// variant with no fitting plan must not abort the portfolio — another
// variant's larger space may still contain one — so ErrNoFeasiblePlan
// (the earliest variant's) propagates only when every variant is
// infeasible. Any other error aborts the whole portfolio.
func bestOf(ctx context.Context, n, workers int, run func(i int) (*Plan, error)) (*Plan, int, error) {
	plans := make([]*Plan, n)
	nofit := make([]error, n)
	err := parallel.ForEachCtx(ctx, n, workers, func(i int) error {
		plan, err := run(i)
		if errors.Is(err, ErrNoFeasiblePlan) {
			nofit[i] = err
			return nil
		}
		plans[i] = plan
		return err
	})
	if err != nil {
		return nil, -1, wrapCtxErr(err)
	}
	best := -1
	for i, plan := range plans {
		if plan != nil && (best < 0 || plan.Time() < plans[best].Time()) {
			best = i
		}
	}
	if best < 0 {
		for _, e := range nofit {
			if e != nil {
				return nil, -1, e
			}
		}
		return nil, -1, fmt.Errorf("core: portfolio produced no plan")
	}
	return plans[best], best, nil
}

// PartitionAccPar is the production AccPar entry point: the full
// complete-space search plus the restricted-variant portfolio, decided by
// the joint computation + communication cost model.
func PartitionAccPar(net *dnn.Network, tree *hardware.Tree) (*Plan, error) {
	return PartitionBest(net, tree, AccParVariants()...)
}
