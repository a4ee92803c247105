package core

import (
	"time"

	"accpar/internal/obs"
)

// Process-wide planner metrics. Updates sit on search-level paths (one per
// subproblem or bisection run, never per DP cell), so the counters are
// invisible in profiles and free when nothing exports them.
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
	// obsReplanHits counts subproblems a served replan (Session.Replan,
	// or a resilience run's searches) served from the memo instead of
	// re-solving: plain subproblems, a recurrent tree's root and memoized
	// stale re-costings alike, plus stale subtrees linked from the
	// pristine plan (ObserveReplan). Entries those calls evict are
	// counted by plancache.evictions.
	obsReplanHits = obs.NewCounter("core.replan_incremental_hits")
	// obsReplanTimer is the replan-latency histogram (p50/p95/p99 via the
	// log2-bucketed obs.Timer): one observation per served replan and per
	// resilience degraded-replanning phase (ObserveReplan).
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
// belongs to the planner's metric family so accpar.Metrics and
// Prometheus export it alongside memo statistics.
func NoteDSEMemoryPruned(n int) { obsDSEMemoryPruned.Add(int64(n)) }

// ObserveReplan records one served replan: its latency d in the
// core.replan.seconds histogram and its memo reuse (st.IncrementalHits
// plus st.StaleReused) in core.replan_incremental_hits. The facade calls
// it after its replans and its resilience pipeline's degraded-replanning
// phase, so serving metrics report one distribution no matter which
// entry point triggered the replan. ReplanCtx and PartitionStatsCtx
// themselves record nothing: a design-space sweep replans every faulted
// candidate, and those are not served replans.
func ObserveReplan(d time.Duration, st ReplanStats) {
	obsReplanTimer.Observe(d)
	obsReplanHits.Add(st.IncrementalHits + st.StaleReused)
}
