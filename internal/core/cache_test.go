package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"accpar/internal/cost"
	"accpar/internal/dnn"
	"accpar/internal/hardware"
)

// TestCacheEquivalence is the cache's core contract: plans must be
// byte-identical (canonical JSON) with the cache disabled, cold and
// warm — caching may change wall-clock, never decisions.
func TestCacheEquivalence(t *testing.T) {
	tree := paperTree(t, 4)
	for _, model := range []string{"resnet50", "vgg16"} {
		t.Run(model, func(t *testing.T) {
			net := buildNet(t, model, 64)

			base := AccPar()
			reference, err := PartitionCtx(context.Background(), net, tree, base)
			if err != nil {
				t.Fatal(err)
			}
			want := planJSON(t, reference)

			cache := NewSharedCache(0)
			cached := base
			cached.Cache = cache
			cold, err := PartitionCtx(context.Background(), net, tree, cached)
			if err != nil {
				t.Fatal(err)
			}
			if got := planJSON(t, cold); !bytes.Equal(got, want) {
				t.Errorf("cold cached plan differs from uncached reference (%d vs %d bytes)", len(got), len(want))
			}
			if st := cache.Stats(); st.Entries == 0 {
				t.Error("cold run populated no cache entries")
			}

			warm, err := PartitionCtx(context.Background(), net, tree, cached)
			if err != nil {
				t.Fatal(err)
			}
			if got := planJSON(t, warm); !bytes.Equal(got, want) {
				t.Errorf("warm cached plan differs from uncached reference")
			}
			if st := cache.Stats(); st.Hits == 0 {
				t.Errorf("warm run recorded no hits: %+v", st)
			}
		})
	}
	// A sweep's use of the cache: the AccPar portfolio over a sequence of
	// fleets, each plan (and its winner index) byte-identical to a
	// standalone portfolio search however much state the earlier fleets
	// left behind.
	t.Run("portfolio-trees", func(t *testing.T) {
		net := buildNet(t, "resnet18", 64)
		variants := cachedVariants(NewSharedCache(0))
		for i, tree := range []*hardware.Tree{
			paperTree(t, 4),
			homTree(t, hardware.TPUv3(), 8, 64),
			paperTree(t, 8),
			homTree(t, hardware.TPUv2(), 16, 64),
			paperTree(t, 4), // revisit: served almost entirely from the cache
		} {
			got, variant, err := PartitionAllCtx(context.Background(), net, tree, variants...)
			if err != nil {
				t.Fatalf("tree %d: %v", i, err)
			}
			want, wantVariant, err := PartitionAllCtx(context.Background(), net, tree, StrategyAccPar.Variants()...)
			if err != nil {
				t.Fatalf("tree %d standalone: %v", i, err)
			}
			if variant != wantVariant {
				t.Errorf("tree %d: cached portfolio won with variant %d, standalone with %d", i, variant, wantVariant)
			}
			if !bytes.Equal(planJSON(t, got[variant]), planJSON(t, want[wantVariant])) {
				t.Errorf("tree %d: cached plan diverges from standalone AccPar portfolio search", i)
			}
		}
	})
}

// TestCacheShapeSoundness: a cache entry's search shape is built from the
// first network that attaches, then serves every search of the same
// fingerprint. Networks that differ only in batch share a fingerprint, and
// so do two distinct Fixed closures with equal results; alternating them
// on one cache must give plans byte-equal to private-memo searches, with
// one entry per fingerprint.
func TestCacheShapeSoundness(t *testing.T) {
	tree := paperTree(t, 4)
	nets := []*dnn.Network{buildNet(t, "resnet18", 32), buildNet(t, "resnet18", 64)}
	fcNames := map[string]bool{}
	for _, u := range nets[0].Units() {
		if u.Kind == dnn.KindFC {
			fcNames[u.Name] = true
		}
	}
	byName := OWT()
	byName.Fixed = func(l dnn.WeightedLayer) (cost.Type, bool) {
		if fcNames[l.Name] {
			return cost.TypeII, true
		}
		return cost.TypeI, true
	}
	options := []Options{AccPar(), OWT(), byName}
	cache := NewSharedCache(0)
	for pass := 0; pass < 2; pass++ {
		for ni, net := range nets {
			for oi, opt := range options {
				want := planJSON(t, mustPartition(t, net, tree, opt))
				opt.Cache = cache
				if got := planJSON(t, mustPartition(t, net, tree, opt)); !bytes.Equal(got, want) {
					t.Errorf("pass %d, batch %d, options %d: cached plan differs from its private-memo search", pass, net.Batch, oi)
				}
				if pass == 0 && ni == 0 && oi == 0 {
					if n := len(cache.entries); n != 1 {
						t.Fatalf("first search created %d cache entries, want 1", n)
					}
				}
			}
		}
	}
	// AccPar and the two equal Fixed assignments: two fingerprints, shared
	// by both batches.
	if n := len(cache.entries); n != 2 {
		t.Errorf("cache holds %d entries, want 2 (one per fingerprint, shared across batches and equal Fixed closures)", n)
	}
}

// TestCacheCancellation covers the mid-sweep abort contract of cached
// portfolio searches: typed ErrCanceled, no goroutine leaks, and a cache
// left consistent — the same cache must afterwards produce plans
// byte-identical to a standalone search.
func TestCacheCancellation(t *testing.T) {
	net := buildNet(t, "resnet18", 64)
	variants := cachedVariants(NewSharedCache(0))
	tree := paperTree(t, 8)

	baseline := runtime.NumGoroutine()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PartitionCtx(canceled, net, tree, variants...); !errors.Is(err, ErrCanceled) {
		t.Fatalf("pre-canceled cached plan: got %v, want ErrCanceled", err)
	}
	if !errors.Is(WrapCtxErr(canceled.Err()), ErrCanceled) {
		t.Fatal("sanity: WrapCtxErr must map context.Canceled to ErrCanceled")
	}

	// Mid-search abort: cancel from a watcher goroutine while the search
	// runs. Whichever subproblem observes it first wins; either way the
	// typed sentinel must surface.
	midCtx, midCancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(200 * time.Microsecond)
		midCancel()
	}()
	if _, err := PartitionCtx(midCtx, net, tree, variants...); err != nil && !errors.Is(err, ErrCanceled) {
		t.Fatalf("mid-search cancel: got %v, want nil or ErrCanceled", err)
	}
	midCancel()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Errorf("goroutines leaked across canceled searches: %d > baseline %d", n, baseline)
	}

	// Cache consistency: the aborted searches published only completed
	// subproblems, so a subsequent plan through the same cache must be
	// byte-identical to a cold standalone search.
	got, err := PartitionCtx(context.Background(), net, tree, variants...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := PartitionCtx(context.Background(), net, tree, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(planJSON(t, got), planJSON(t, want)) {
		t.Error("post-cancel cached plan diverges from standalone search")
	}
}

// TestCacheWarmRunIsAllHits: the second identical search must resolve
// entirely from the cache — its root subproblem is resident, so not a
// single node is recomputed.
func TestCacheWarmRunIsAllHits(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	tree := paperTree(t, 4)
	cache := NewSharedCache(0)
	opt := AccPar()
	opt.Cache = cache
	if _, err := PartitionCtx(context.Background(), net, tree, opt); err != nil {
		t.Fatal(err)
	}
	before := cache.Stats()
	if _, err := PartitionCtx(context.Background(), net, tree, opt); err != nil {
		t.Fatal(err)
	}
	after := cache.Stats()
	if after.Misses != before.Misses {
		t.Errorf("warm run missed %d times; want 0", after.Misses-before.Misses)
	}
	// The warm search asks the cache exactly once: the root hit links the
	// whole cached plan.
	if after.Hits != before.Hits+1 {
		t.Errorf("warm run recorded %d hits; want exactly 1 (the root)", after.Hits-before.Hits)
	}
}

// TestCacheOptionIsolation: different option sets sharing one cache must
// never cross-contaminate — each cached search must still match its own
// uncached reference bit for bit, strategy name included (a search shape
// names its plans once). The last five variants each differ from AccPar
// in one field the strategy name reports.
func TestCacheOptionIsolation(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	tree := paperTree(t, 4)
	cache := NewSharedCache(0)
	accpar := func(set func(*Options)) Options { o := AccPar(); set(&o); return o }
	variants := []struct {
		name string
		opt  Options
	}{
		{"accpar", AccPar()},
		{"dp", DataParallel()},
		{"owt", OWT()},
		{"hypar", HyPar()},
		{"inference", accpar(func(o *Options) { o.Mode = ModeInference })},
		{"types", accpar(func(o *Options) { o.Types = []cost.Type{cost.TypeI, cost.TypeII} })},
		{"comm-only", accpar(func(o *Options) { o.Objective = ObjectiveCommOnly })},
		{"equal-ratio", accpar(func(o *Options) { o.Ratio = RatioEqual })},
		{"linearize", accpar(func(o *Options) { o.Linearize = true })},
		{"fixed", accpar(func(o *Options) {
			o.Fixed = func(dnn.WeightedLayer) (cost.Type, bool) { return cost.TypeI, true }
		})},
	}
	// Interleave: cold pass of everything, then a warm pass, comparing
	// each against its private uncached reference.
	refs := make([][]byte, len(variants))
	for i, v := range variants {
		plan, err := PartitionCtx(context.Background(), net, tree, v.opt)
		if err != nil {
			t.Fatalf("%s reference: %v", v.name, err)
		}
		refs[i] = planJSON(t, plan)
	}
	for pass := 0; pass < 2; pass++ {
		for i, v := range variants {
			opt := v.opt
			opt.Cache = cache
			plan, err := PartitionCtx(context.Background(), net, tree, opt)
			if err != nil {
				t.Fatalf("%s pass %d: %v", v.name, pass, err)
			}
			if got := planJSON(t, plan); !bytes.Equal(got, refs[i]) {
				t.Errorf("%s pass %d: shared-cache plan differs from its uncached reference", v.name, pass)
			}
		}
	}
}

// TestReplanSharesCache: a replan handed a shared cache plans on it.
// It reports exactly what an uncached replan reports, fills the cache,
// and a second replan of the same fault is served whole from it; a
// one-shot Partition of the pristine hierarchy through the same cache is
// then a cache hit, and a replan after it finds the pristine plan there.
func TestReplanSharesCache(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	groups := v2v3Groups(4)
	pristine := treeFor(t, groups...)
	deg, err := hardware.DegradeGroups(groups, map[int]hardware.Degradation{
		0: {Compute: 2, MemBW: 1, NetBW: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	degraded := treeFor(t, deg...)

	ref, err := ReplanCtx(context.Background(), net, pristine, degraded, AccPar())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewSharedCache(0)
	opt := AccPar()
	opt.Cache = cache
	for pass := 0; pass < 2; pass++ {
		rep, err := ReplanCtx(context.Background(), net, pristine, degraded, opt)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		assertReportsEqual(t, fmt.Sprintf("pass %d", pass), rep, ref)
		if pass == 0 && cache.Len() == 0 {
			t.Error("replan left the shared cache empty")
		}
		if pass == 1 && rep.Stats.Expanded != 0 {
			t.Errorf("second replan of the same fault expanded %d subproblems, want 0", rep.Stats.Expanded)
		}
	}

	before := cache.Stats()
	if _, err := PartitionCtx(context.Background(), net, pristine, opt); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits == before.Hits || st.Misses != before.Misses {
		t.Errorf("Partition of the replanned pristine tree should be a cache hit: before %+v, after %+v", before, st)
	}

	// A fresh cache warmed by a one-shot Partition hands the replan its
	// pristine plan.
	warm := NewSharedCache(0)
	opt.Cache = warm
	if _, err := PartitionCtx(context.Background(), net, pristine, opt); err != nil {
		t.Fatal(err)
	}
	before = warm.Stats()
	rep, err := ReplanCtx(context.Background(), net, pristine, degraded, opt)
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, "after Partition", rep, ref)
	if st := warm.Stats(); st.Hits == before.Hits {
		t.Errorf("replan after Partition found nothing in the cache: %+v", st)
	}
}

// TestCacheTrimsToThreeQuarters: once a search overflows the capacity,
// the trim evicts down to three quarters of it, not just to the bound,
// so the next searches run without another trim.
func TestCacheTrimsToThreeQuarters(t *testing.T) {
	net := buildNet(t, "vgg16", 64)
	tree := paperTree(t, 4)
	variants := []Options{AccPar(), DataParallel(), OWT(), HyPar()}
	probe := NewSharedCache(0)
	for _, opt := range variants {
		opt.Parallelism = 1
		opt.Cache = probe
		mustPartition(t, net, tree, opt)
	}
	capacity := probe.Len() - 1
	cache := NewSharedCache(capacity)
	for _, opt := range variants {
		opt.Parallelism = 1
		opt.Cache = cache
		mustPartition(t, net, tree, opt)
	}
	st := cache.Stats()
	if st.Evictions == 0 {
		t.Fatalf("working set of %d entries on a %d-entry cache evicted nothing: %+v", probe.Len(), capacity, st)
	}
	if limit := capacity * 3 / 4; st.Entries > limit {
		t.Errorf("after a trim the cache holds %d entries, want at most %d (3/4 of %d)", st.Entries, limit, capacity)
	}
}

// TestCacheBoundedEviction: the capacity bounds the whole cache, across
// every search fingerprint. A working set that fits stays fully resident
// (a second pass computes nothing); a larger one is held to the bound
// exactly, and every plan still matches its uncached reference.
func TestCacheBoundedEviction(t *testing.T) {
	net := buildNet(t, "vgg16", 64)
	tree := paperTree(t, 4)
	variants := []Options{AccPar(), DataParallel(), OWT(), HyPar()}
	refs := make([][]byte, len(variants))
	for i := range variants {
		// Serial searches solve each subproblem exactly once: parallel
		// workers may both solve the identical halves of a symmetric split.
		variants[i].Parallelism = 1
		refs[i] = planJSON(t, mustPartition(t, net, tree, variants[i]))
	}
	// pass plans every variant once through cache, checking each plan and
	// the bound after each search.
	pass := func(cache *SharedCache, capacity int) {
		t.Helper()
		for i, opt := range variants {
			opt.Cache = cache
			if got := planJSON(t, mustPartition(t, net, tree, opt)); !bytes.Equal(got, refs[i]) {
				t.Errorf("capacity %d, variant %d: plan differs from its uncached reference", capacity, i)
			}
			if n := cache.Len(); n > capacity {
				t.Errorf("capacity %d: cache holds %d entries", capacity, n)
			}
		}
	}

	const fits = 64
	cache := NewSharedCache(fits)
	pass(cache, fits)
	cold := cache.Stats()
	if cold.Evictions != 0 || int64(cold.Entries) != cold.Misses {
		t.Errorf("capacity %d: working set of %d subproblems not fully resident: %+v", fits, cold.Misses, cold)
	}
	pass(cache, fits)
	if warm := cache.Stats(); warm.Misses != cold.Misses {
		t.Errorf("capacity %d: second pass missed %d times; want 0", fits, warm.Misses-cold.Misses)
	}

	small := int(cold.Misses) / 2
	cache = NewSharedCache(small)
	pass(cache, small)
	pass(cache, small)
	if st := cache.Stats(); st.Evictions == 0 {
		t.Errorf("capacity %d under a %d-entry working set evicted nothing: %+v", small, cold.Misses, st)
	}
}

// TestCacheConcurrentSearches hammers one shared cache from concurrent
// Partition and Replan calls across distinct option sets (run under
// -race), once at the default capacity and once at a capacity so small
// that eviction runs while other searches do. Every resulting plan must
// match its serial uncached reference.
func TestCacheConcurrentSearches(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	groups := v2v3Groups(4)
	pristine := treeFor(t, groups...)
	deg, err := hardware.DegradeGroups(groups, map[int]hardware.Degradation{
		1: {Compute: 2, MemBW: 1, NetBW: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	degraded := treeFor(t, deg...)

	wantAccPar := planJSON(t, mustPartition(t, net, pristine, AccPar()))
	wantDP := planJSON(t, mustPartition(t, net, pristine, DataParallel()))

	workers := 2 * runtime.GOMAXPROCS(0)
	if workers < 8 {
		workers = 8
	}
	for _, capacity := range []int{0, 4} {
		cache := NewSharedCache(capacity)
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			w := w
			wg.Add(1)
			go func() {
				defer wg.Done()
				switch w % 3 {
				case 0:
					opt := AccPar()
					opt.Cache = cache
					opt.Parallelism = w%2 + 1
					plan, err := PartitionCtx(context.Background(), net, pristine, opt)
					if err != nil {
						errs <- fmt.Errorf("worker %d Partition: %w", w, err)
						return
					}
					if !bytes.Equal(planJSON(t, plan), wantAccPar) {
						errs <- fmt.Errorf("worker %d: AccPar plan differs from reference", w)
					}
				case 1:
					opt := DataParallel()
					opt.Cache = cache
					plan, err := PartitionCtx(context.Background(), net, pristine, opt)
					if err != nil {
						errs <- fmt.Errorf("worker %d Partition(DP): %w", w, err)
						return
					}
					if !bytes.Equal(planJSON(t, plan), wantDP) {
						errs <- fmt.Errorf("worker %d: DP plan differs from reference", w)
					}
				default:
					opt := AccPar()
					opt.Cache = cache
					if _, err := ReplanCtx(context.Background(), net, pristine, degraded, opt); err != nil {
						errs <- fmt.Errorf("worker %d Replan: %w", w, err)
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("capacity %d: %v", capacity, err)
		}
		st := cache.Stats()
		if capacity == 0 && st.Hits == 0 {
			t.Errorf("concurrent searches shared nothing: %+v", st)
		}
		if capacity > 0 && (st.Evictions == 0 || st.Entries > capacity) {
			t.Errorf("capacity %d: want evictions and at most %d entries: %+v", capacity, capacity, st)
		}
	}
}

func mustPartition(t *testing.T, net *dnn.Network, tree *hardware.Tree, opt Options) *Plan {
	t.Helper()
	plan, err := PartitionCtx(context.Background(), net, tree, opt)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// cachedVariants is the AccPar portfolio with every variant searching
// through cache.
func cachedVariants(cache *SharedCache) []Options {
	opts := StrategyAccPar.Variants()
	for i := range opts {
		opts[i].Cache = cache
	}
	return opts
}

// TestPartitionAccParCached: the cached portfolio search matches the
// uncached one and reuses the cache across calls.
func TestPartitionAccParCached(t *testing.T) {
	net := buildNet(t, "alexnet", 64)
	tree := paperTree(t, 4)
	ref, err := PartitionCtx(context.Background(), net, tree, StrategyAccPar.Variants()...)
	if err != nil {
		t.Fatal(err)
	}
	want := planJSON(t, ref)
	cache := NewSharedCache(0)
	for pass := 0; pass < 2; pass++ {
		plan, err := PartitionCtx(context.Background(), net, tree, cachedVariants(cache)...)
		if err != nil {
			t.Fatal(err)
		}
		if got := planJSON(t, plan); !bytes.Equal(got, want) {
			t.Errorf("pass %d: cached portfolio plan differs from reference", pass)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Errorf("portfolio reuse recorded no hits: %+v", st)
	}
	if _, err := PartitionCtx(context.Background(), net, tree, cachedVariants(nil)...); err != nil {
		t.Errorf("nil cache must degrade to the uncached search: %v", err)
	}
}
