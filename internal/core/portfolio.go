package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
)

// The paper compares four schemes that are restrictions of one search:
// Table 8 orders them DP ≺ OWT ≺ HyPar ≺ AccPar. The hierarchical search
// is greedy across levels: each level's dynamic programming is exact
// (Eq. 9), but the dims it hands the next level depend on its choices, so
// a level-optimal assignment is not always subtree-optimal. Because
// AccPar's complete partition space strictly contains every baseline's
// space, a sound implementation must never emit a plan worse than a plan
// the restricted configurations can find. StrategyAccPar.Variants lists
// the restricted configurations whose greedy paths differ; PartitionCtx
// evaluates all of them under the one true cost model and keeps the
// winner, restoring the containment guarantee the paper's claims rest on.

// Strategy selects a parallelization scheme.
type Strategy int

const (
	// StrategyDP is the data-parallelism baseline: every layer Type-I,
	// equal ratios.
	StrategyDP Strategy = iota
	// StrategyOWT is "one weird trick": CONV layers data-parallel, FC
	// layers model-parallel.
	StrategyOWT
	// StrategyHyPar is the HyPar baseline: two types, communication-only
	// objective, equal ratios, linearized graphs.
	StrategyHyPar
	// StrategyAccPar is the full AccPar method: complete type space, joint
	// cost model, flexible ratios, native multi-path search.
	StrategyAccPar
)

// Strategies lists all strategies in ascending flexibility order
// (Table 8 of the paper: DP ≺ OWT ≺ HyPar ≺ AccPar).
var Strategies = []Strategy{StrategyDP, StrategyOWT, StrategyHyPar, StrategyAccPar}

var (
	strategyNames   = [...]string{"DP", "OWT", "HyPar", "AccPar"}
	strategyOptions = [...]func() Options{DataParallel, OWT, HyPar, AccPar}
)

// ParseStrategy converts a case-insensitive strategy name ("dp", "owt",
// "hypar", "accpar") to a Strategy — the parser behind the CLI and serve
// -strategy/"strategy" inputs.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies {
		if strings.EqualFold(name, s.String()) {
			return s, nil
		}
	}
	return 0, fmt.Errorf("unknown strategy %q (want dp, owt, hypar or accpar)", name)
}

// String names the strategy as in the paper's figures.
func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategyNames[s]
}

// Options returns the strategy's single search configuration, for
// callers who want to tweak it before searching.
func (s Strategy) Options() Options {
	if s < 0 || int(s) >= len(strategyOptions) {
		panic(fmt.Sprintf("core: invalid strategy %d", int(s)))
	}
	return strategyOptions[s]()
}

// The option sets of StrategyAccPar.Variants, in the order the winner
// rule breaks ties in. The last three are the baselines; the rest are
// AccPar with one design element removed.
const (
	VariantAccPar     = iota // the full configuration
	VariantNoTypeIII         // types {I, II}
	VariantNoTypeII          // types {I, III}
	VariantCommOnly          // HyPar's communication-only objective
	VariantEqualRatio        // α = 0.5 at every split
	VariantLinearized        // multi-path regions flattened
	VariantHyPar
	VariantOWT
	VariantDP
)

// Variants returns the option sets PartitionCtx searches for the
// strategy. AccPar is the production portfolio: the full configuration
// plus the restricted variants it subsumes (type-set restrictions, the
// communication-proxy objective, and the baselines themselves), indexed
// by the Variant constants. Every other strategy is its single
// configuration. The slice is fresh, so callers may set per-call fields
// (Cache, MemoryLimit, Topology) on it.
func (s Strategy) Variants() []Options {
	if s != StrategyAccPar {
		return []Options{s.Options()}
	}
	v := make([]Options, VariantDP+1)
	for i := VariantAccPar; i < VariantHyPar; i++ {
		v[i] = AccPar()
	}
	v[VariantNoTypeIII].Types = []cost.Type{cost.TypeI, cost.TypeII}
	v[VariantNoTypeII].Types = []cost.Type{cost.TypeI, cost.TypeIII}
	v[VariantCommOnly].Objective = ObjectiveCommOnly
	v[VariantEqualRatio].Ratio = RatioEqual
	v[VariantLinearized].Linearize = true
	v[VariantHyPar] = HyPar()
	v[VariantOWT] = OWT()
	v[VariantDP] = DataParallel()
	return v
}

// Variant maps a strategy to its plan in a PartitionAllCtx run of
// StrategyAccPar.Variants whose winner is winner: each baseline is its
// own variant, and AccPar is the winner. One portfolio run so answers all
// four strategies with the plans four PartitionCtx calls would return.
func (s Strategy) Variant(winner int) int {
	switch s {
	case StrategyDP:
		return VariantDP
	case StrategyOWT:
		return VariantOWT
	case StrategyHyPar:
		return VariantHyPar
	}
	return winner
}

// PartitionCtx runs the hierarchical layer-wise partitioning of the
// network over the accelerator hierarchy, returning the complete plan. At
// every non-leaf hierarchy node it alternates the Eq. 9 dynamic
// programming with the Eq. 10 ratio balance until the type assignment
// stabilizes, then recurses into both children with the per-unit dims
// scaled by the chosen ratio along each unit's partitioned dimension.
// The whole call runs on the calling goroutine.
//
// With several option sets (a Strategy's Variants) PartitionCtx searches
// each in turn and returns the plan with the lowest modelled iteration
// time, the earliest option set on ties.
//
// The search polls ctx at every subproblem visit and before every DP run
// of a split's type/ratio alternation, and option sets not yet started
// when ctx is done never run; aborts report ErrCanceled or
// ErrDeadlineExceeded. An aborted search never publishes partial results
// — neither into its plan nor into the shared cache (Options.Cache).
func PartitionCtx(ctx context.Context, net *dnn.Network, tree *hardware.Tree, opts ...Options) (*Plan, error) {
	plan, _, err := partition(ctx, net, tree, nil, opts, nil)
	return plan, err
}

// PartitionAllCtx is PartitionCtx that keeps every option set's plan:
// plans[i] is opts[i]'s plan, nil when that set has no fitting plan, and
// winner indexes the plan PartitionCtx returns. When no set fits, the
// error is ErrNoFeasiblePlan, plans is all nil and winner is -1; on any
// other error plans is nil. A comparison reads every strategy from one
// run of StrategyAccPar.Variants (Strategy.Variant), and a design-space
// sweep replans each faulted candidate with its winner's options.
func PartitionAllCtx(ctx context.Context, net *dnn.Network, tree *hardware.Tree, opts ...Options) (plans []*Plan, winner int, err error) {
	plans = make([]*Plan, len(opts))
	_, winner, err = partition(ctx, net, tree, nil, opts, plans)
	switch {
	case err == nil:
		return plans, winner, nil
	case errors.Is(err, ErrNoFeasiblePlan):
		return plans, -1, err
	}
	return nil, -1, err
}

// PartitionStatsCtx is PartitionCtx that also reports, summed over every
// option set, how many subproblems the search served from the memo (or
// the cache), how many it solved, and how many entries its cache trims
// evicted. The resilience pipeline reports its two searches this way.
func PartitionStatsCtx(ctx context.Context, net *dnn.Network, tree *hardware.Tree, opts ...Options) (*Plan, ReplanStats, error) {
	start := time.Now()
	rs := &replanStats{}
	plan, _, err := partition(ctx, net, tree, rs, opts, nil)
	return plan, rs.snapshot(time.Since(start)), err
}

// partition is the one portfolio path: PartitionCtx with an optional
// stats collector and, when plans is non-nil (len(opts) slots), each
// option set's plan, nil where its search failed. Every option set
// searches the one searchNet, so the call validates and digests the
// network once.
func partition(ctx context.Context, net *dnn.Network, tree *hardware.Tree, rs *replanStats, opts []Options, plans []*Plan) (*Plan, int, error) {
	sn := &searchNet{net: net, rs: rs}
	switch len(opts) {
	case 0:
		return nil, -1, fmt.Errorf("core: PartitionCtx needs at least one option set")
	case 1:
		plan, err := partitionOne(ctx, sn, tree, opts[0])
		if plans != nil {
			plans[0] = plan
		}
		return plan, 0, err
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
	best, idx, err := bestOf(ctx, len(opts), func(i int) (*Plan, error) {
		plan, err := partitionOne(ctx, sn, tree, opts[i])
		if plans != nil {
			plans[i] = plan
		}
		return plan, err
	})
	if callerAudit == nil {
		return best, idx, err
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
		return nil, -1, err
	}
	callerAudit.adopt(variantAudits[idx])
	best.audit = callerAudit
	return best, idx, nil
}

// bestOf is the one portfolio winner rule. It runs variants 0..n-1 (n ≥ 1)
// through run, in index order on the caller's goroutine, and returns the
// winner and its index: lowest modelled time, earliest variant on ties.
// A variant not yet started when ctx is done never runs. A variant with
// no fitting plan must not abort the portfolio — another variant's larger
// space may still contain one — so ErrNoFeasiblePlan (the earliest
// variant's) propagates only when every variant is infeasible. Any other
// error aborts the whole portfolio.
func bestOf(ctx context.Context, n int, run func(i int) (*Plan, error)) (*Plan, int, error) {
	var best *Plan
	idx := -1
	var nofit error
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return nil, -1, WrapCtxErr(err)
		}
		plan, err := run(i)
		if errors.Is(err, ErrNoFeasiblePlan) {
			if nofit == nil {
				nofit = err
			}
			continue
		}
		if err != nil {
			return nil, -1, err
		}
		if best == nil || plan.Time() < best.Time() {
			best, idx = plan, i
		}
	}
	if best == nil {
		return nil, -1, nofit
	}
	return best, idx, nil
}
