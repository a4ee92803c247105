package core

import (
	"time"

	"accpar/internal/obs"
)

// Process-wide planner metrics. Updates sit on search-level paths (one per
// subproblem, fork or bisection run, never per DP cell), so the counters
// are invisible in profiles and free when nothing exports them.
var (
	// obsSubproblems counts hierarchy subproblems solved from scratch
	// (computeNode runs — the work memoization and the shared cache avoid).
	obsSubproblems = obs.NewCounter("core.subproblems_expanded")
	// obsMemoHits counts memo hits other than cross-run cache hits.
	obsMemoHits = obs.NewCounter("core.memo_hits")
	// obsCacheHits, obsCacheMisses and obsCacheEvictions mirror every
	// SharedCache's counters process-wide (CacheStats): hits on entries
	// another search stamped, subproblems a cached search solved, and
	// entries dropped by a cache's capacity bound.
	obsCacheHits      = obs.NewCounter("plancache.hits")
	obsCacheMisses    = obs.NewCounter("plancache.misses")
	obsCacheEvictions = obs.NewCounter("plancache.evictions")
	// obsBisectIters counts Eq. 10 bisection iterations.
	obsBisectIters = obs.NewCounter("core.bisection_iterations")
	// obsForks counts child subproblems forked onto pooled workers.
	obsForks = obs.NewCounter("core.parallel_forks")
	// obsReplanHits counts subproblems a replan (ReplanCtx, or a
	// resilience search through PartitionStatsCtx) served from the memo
	// instead of re-solving: plain subproblems, a recurrent tree's root and
	// memoized stale re-costings alike, plus stale subtrees linked from the
	// pristine plan. Entries those calls evict are counted by
	// plancache.evictions.
	obsReplanHits = obs.NewCounter("core.replan_incremental_hits")
	// obsReplanTimer is the replan-latency histogram (p50/p95/p99 via the
	// log2-bucketed obs.Timer): one observation per served replan and per
	// resilience degraded-replanning phase (ObserveReplanLatency).
	obsReplanTimer = obs.NewTimer("core.replan.seconds")
	// obsMemoryPruned counts subtrees the constrained search proved
	// infeasible via the capacity floors inside the DP recursion —
	// candidate ladders it never had to run.
	obsMemoryPruned = obs.NewCounter("core.memory_pruned_subtrees")
	// obsDSEMemoryPruned counts sweep candidates discarded because their
	// aggregate HBM cannot hold the workload's minimum residency, before
	// any search ran.
	obsDSEMemoryPruned = obs.NewCounter("core.dse_memory_pruned_candidates")
)

// NoteDSEMemoryPruned records candidates a design-space sweep discarded
// on the aggregate-capacity floor (MinResidencyBytes) without costing
// them. The sweep lives outside internal/core, but the counter
// belongs to the planner's metric family so Session.Metrics and
// Prometheus export it alongside memo statistics.
func NoteDSEMemoryPruned(n int) { obsDSEMemoryPruned.Add(int64(n)) }

// ObserveReplanLatency records one replan-latency observation in the
// core.replan.seconds histogram. The facade calls it around its replans
// and its resilience pipeline's degraded-replanning phase, so serving
// metrics report one latency distribution no matter which entry point
// triggered the replan. ReplanCtx itself records nothing: a design-space
// sweep replans every faulted candidate, and those are not served
// replans.
func ObserveReplanLatency(d time.Duration) { obsReplanTimer.Observe(d) }
