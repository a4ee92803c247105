package accpar

import (
	"context"
	"fmt"

	"accpar/internal/autotune"
	"accpar/internal/core"
	"accpar/internal/diag"
	"accpar/internal/hardware"
)

// PlanCache is the shared cross-run plan cache: a concurrency-safe,
// bounded store of solved hierarchical subproblems, content-addressed so
// that any number of searches — over any mix of networks, arrays and
// options — can share one instance without cross-contamination. When it
// outgrows its bound, the subproblems of the least recently served
// searches go first. Caching never changes decisions: plans are
// byte-identical with the cache disabled, cold or warm. It holds solved
// subproblems only: every call builds its hardware tree from the array.
type PlanCache = core.SharedCache

// CacheStats is the cache's hit/miss/eviction counters.
type CacheStats = core.CacheStats

// NewPlanCache returns a cache bounded to capacity resident subproblem
// solutions (≤ 0 selects the default).
func NewPlanCache(capacity int) *PlanCache { return core.NewSharedCache(capacity) }

// Session binds the package's entry points to one store, a PlanCache.
// One-shot planning — Partition, PartitionWithOptions, Compare,
// TuneBatch, TuneDepth — and fault work — Replan and Resilience — all
// search on it, so repeated and related searches reuse each other's
// solved subproblems instead of recomputing them: a replan finds the
// pristine plan and every subtree its fault did not touch already
// solved, and a recurrent fault is a few memo lookups. The cache's
// capacity is the only bound on what the Session retains. A Session is
// safe for concurrent use; methods mirror the package-level functions of
// the same name.
//
// The store lives only as long as the Session: a new Session starts its
// PlanCache empty.
type Session struct {
	cache *PlanCache
}

// NewSession returns a Session with a fresh cache bounded to capacity
// entries (≤ 0 selects the default).
func NewSession(capacity int) *Session {
	return &Session{cache: NewPlanCache(capacity)}
}

// Cache returns the session's shared plan cache, for callers who want to
// pass it to the one-shot entry points directly (Options.Cache).
func (s *Session) Cache() *PlanCache { return s.cache }

// CacheStats returns the session cache's counters.
func (s *Session) CacheStats() CacheStats { return s.cache.Stats() }

// ServeDiagnostics starts a diagnostics HTTP server on addr (":0" picks
// a free port; see DiagServer.Addr) with a "plan-cache" readiness probe
// bound to this session: readiness fails until the session cache holds at
// least one solved subproblem, that is, until a search — one-shot,
// replan or resilience — has completed. Metrics and events are
// process-wide, so the server also reflects work done outside this
// session.
func (s *Session) ServeDiagnostics(addr string) (*DiagServer, error) {
	return diag.Start(addr, diag.Options{
		Ready: []diag.Check{{
			Name: "plan-cache",
			Probe: func() error {
				if s.cache.Stats().Entries == 0 {
					return fmt.Errorf("empty (no completed search yet)")
				}
				return nil
			},
		}},
	})
}

// Partition is the package-level Partition through the session cache.
func (s *Session) Partition(net *Network, arr *Array, strategy Strategy) (*Plan, error) {
	return s.PartitionCtx(context.Background(), net, arr, strategy)
}

// PartitionCtx is Partition bound to a context: the search polls ctx and
// aborts with ErrCanceled or ErrDeadlineExceeded. An aborted search
// never leaves partial results in the session cache — only fully solved
// subproblems are ever published — so a subsequent uncanceled run is
// byte-identical to one against a fresh session.
func (s *Session) PartitionCtx(ctx context.Context, net *Network, arr *Array, strategy Strategy) (*Plan, error) {
	return partitionCtx(ctx, net, arr, 64, s.cache, nil, strategy.Variants()...)
}

// Resilience is the package-level fault-injection experiment through the
// session cache: the pristine and degraded partition searches share
// subproblems with each other and with all prior work of the session.
func (s *Session) Resilience(net *Network, groups []ArrayGroup, strategy Strategy, sc FaultScenario, cfg SimConfig) (*ResilienceReport, error) {
	return s.ResilienceCtx(context.Background(), net, groups, strategy, sc, cfg)
}

// ResilienceCtx is Resilience bound to a context: both partition
// searches poll ctx, and the pipeline re-checks it between its plan and
// simulation phases, so an abort is observed within one phase.
func (s *Session) ResilienceCtx(ctx context.Context, net *Network, groups []ArrayGroup, strategy Strategy, sc FaultScenario, cfg SimConfig) (*ResilienceReport, error) {
	return resilienceCtx(ctx, s.cache, net, groups, strategy, sc, cfg)
}

// PartitionWithOptions is the package-level PartitionWithOptions through
// the session cache (overriding any Options.Cache the caller set).
func (s *Session) PartitionWithOptions(net *Network, arr *Array, opt Options, maxLevels int) (*Plan, error) {
	return s.PartitionWithOptionsCtx(context.Background(), net, arr, opt, maxLevels)
}

// PartitionWithOptionsCtx is PartitionWithOptions bound to a context;
// see PartitionCtx for the abort and cache-consistency semantics.
func (s *Session) PartitionWithOptionsCtx(ctx context.Context, net *Network, arr *Array, opt Options, maxLevels int) (*Plan, error) {
	return partitionCtx(ctx, net, arr, maxLevels, s.cache, nil, opt)
}

// Compare partitions the network with all four strategies through the
// session cache. The AccPar portfolio already searches the three
// baselines as variants, so one portfolio run answers every strategy, on
// the calling goroutine: plans are identical to four Partition calls,
// and the cache sees exactly the lookups of one Partition with
// StrategyAccPar.
func (s *Session) Compare(net *Network, arr *Array) (*Comparison, error) {
	return s.CompareCtx(context.Background(), net, arr)
}

// CompareCtx is Compare bound to a context: variants not yet started
// when ctx is done never run, and a running one aborts at its next
// cancellation probe with ErrCanceled or ErrDeadlineExceeded.
func (s *Session) CompareCtx(ctx context.Context, net *Network, arr *Array) (*Comparison, error) {
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		return nil, err
	}
	opts := StrategyAccPar.Variants()
	for i := range opts {
		opts[i].Cache = s.cache
	}
	plans, winner, err := core.PartitionAllCtx(ctx, net, tree, opts...)
	if err != nil {
		return nil, err
	}
	c := &Comparison{Plans: map[Strategy]*Plan{}}
	for _, st := range Strategies {
		c.Plans[st] = plans[st.Variant(winner)]
	}
	return c, nil
}

// Replan is ReplanAnalytic through the session cache: the pristine-array
// search, the degraded-array search, and earlier work of the session
// share subproblems (a fault touching one group leaves the other group's
// subtrees cache-resident).
func (s *Session) Replan(net *Network, groups []ArrayGroup, strategy Strategy, sc *FaultScenario) (*ReplanReport, error) {
	return s.ReplanCtx(context.Background(), net, groups, strategy, sc)
}

// ReplanCtx is Replan bound to a context; all three planning passes poll
// ctx and abort with ErrCanceled or ErrDeadlineExceeded. The pristine
// plan and every untouched subtree come from the session cache, and a
// recurrent scenario is answered entirely from it. Reports stay
// byte-identical to a fresh session's.
func (s *Session) ReplanCtx(ctx context.Context, net *Network, groups []ArrayGroup, strategy Strategy, sc *FaultScenario) (*ReplanReport, error) {
	return replanAnalyticCtx(ctx, s.cache, net, groups, strategy.Options(), sc)
}

// TuneBatch is the package-level TuneBatch through the session cache.
func (s *Session) TuneBatch(model string, arr *Array, minBatch, maxBatch int) (*autotune.BatchResult, error) {
	tree, err := hardware.BuildTree(arr, 64)
	if err != nil {
		return nil, err
	}
	return autotune.TuneBatch(model, tree, minBatch, maxBatch, s.cache)
}

// TuneDepth is the package-level TuneDepth through the session cache.
func (s *Session) TuneDepth(net *Network, arr *Array) (*autotune.DepthResult, error) {
	return autotune.TuneDepth(net, arr, s.cache)
}
