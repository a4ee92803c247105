package plancache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// key returns a test key pinned to one shard: the first byte selects the
// shard, so a constant prefix keeps every key in shard 'a'&31.
func key(i int) string { return fmt.Sprintf("a%06d", i) }

func TestGetPutHitMiss(t *testing.T) {
	c := New[int](8)
	if _, ok := c.Get("a0"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a0", 42)
	v, ok := c.Get("a0")
	if !ok || v != 42 {
		t.Fatalf("Get = %d, %v; want 42, true", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v; want 1 hit, 1 miss, 1 entry", st)
	}
	if hr := st.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate %g; want 0.5", hr)
	}
}

// TestEvictionDeterminism: with all keys pinned to one shard of capacity
// shardCount (per-shard cap 1... no: per-shard cap = capacity/shardCount),
// the LRU must evict in exactly insertion order unless touched, and a Get
// must rescue an entry from eviction. The sequence is deterministic — the
// same operations always evict the same keys.
func TestEvictionDeterminism(t *testing.T) {
	// capacity 4*shardCount gives each shard room for exactly 4 entries.
	c := New[int](4 * shardCount)
	for i := 0; i < 4; i++ {
		c.Put(key(i), i)
	}
	// Touch key(0): key(1) becomes the shard's LRU victim.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("key 0 missing before eviction")
	}
	c.Put(key(4), 4) // evicts key(1)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("key 1 survived; want it evicted as LRU")
	}
	for _, want := range []int{0, 2, 3, 4} {
		if _, ok := c.Get(key(want)); !ok {
			t.Fatalf("key %d evicted; want resident", want)
		}
	}
	if ev := c.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d; want 1", ev)
	}
	// Repeat the same sequence on a fresh cache: identical outcome.
	c2 := New[int](4 * shardCount)
	for i := 0; i < 4; i++ {
		c2.Put(key(i), i)
	}
	c2.Get(key(0))
	c2.Put(key(4), 4)
	for i := 0; i < 5; i++ {
		_, ok1 := c.Get(key(i))
		_, ok2 := c2.Get(key(i))
		if ok1 != ok2 {
			t.Fatalf("key %d residency differs between identical runs: %v vs %v", i, ok1, ok2)
		}
	}
}

// TestEvictionOrderFullScan fills one shard far past capacity and checks
// that exactly the most recent cap entries survive, in MRU order.
func TestEvictionOrderFullScan(t *testing.T) {
	const perShard = 8
	c := New[int](perShard * shardCount)
	const n = 50
	for i := 0; i < n; i++ {
		c.Put(key(i), i)
	}
	for i := 0; i < n; i++ {
		_, ok := c.Get(key(i))
		if want := i >= n-perShard; ok != want {
			t.Fatalf("key %d resident=%v; want %v", i, ok, want)
		}
	}
	if ev := c.Stats().Evictions; ev != n-perShard {
		t.Fatalf("evictions = %d; want %d", ev, n-perShard)
	}
}

// TestPutRefreshDoesNotGrow: re-putting an existing key must update in
// place, not duplicate or evict.
func TestPutRefreshDoesNotGrow(t *testing.T) {
	c := New[int](2 * shardCount)
	c.Put("a1", 1)
	c.Put("a2", 2)
	c.Put("a1", 10)
	if n := c.Len(); n != 2 {
		t.Fatalf("Len = %d; want 2", n)
	}
	if v, _ := c.Get("a1"); v != 10 {
		t.Fatalf("refreshed value = %d; want 10", v)
	}
	if ev := c.Stats().Evictions; ev != 0 {
		t.Fatalf("evictions = %d; want 0", ev)
	}
}

// TestDoComputesOnceSerial: sequential Do calls hit after the first.
func TestDoComputesOnceSerial(t *testing.T) {
	c := New[string](0)
	calls := 0
	fn := func() (string, error) { calls++; return "v", nil }
	for i := 0; i < 3; i++ {
		v, hit, err := c.Do("ak", fn)
		if err != nil || v != "v" {
			t.Fatalf("Do = %q, %v", v, err)
		}
		if wantHit := i > 0; hit != wantHit {
			t.Fatalf("call %d: hit=%v, want %v", i, hit, wantHit)
		}
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times; want 1", calls)
	}
}

// TestDoCoalesces: N concurrent Do calls for one key run the compute
// exactly once; everyone gets the same value; the latecomers are counted
// as coalesced or served from cache. The round repeats on fresh caches
// because the interleaving that once computed a key twice — a head probe
// missing just before another caller's flight finished and deregistered
// — shows up in well under one round in a hundred.
func TestDoCoalesces(t *testing.T) {
	const rounds = 3000
	for r := 0; r < rounds; r++ {
		doCoalescesRound(t)
		if t.Failed() {
			t.Fatalf("round %d of %d", r, rounds)
		}
	}
}

func doCoalescesRound(t *testing.T) {
	t.Helper()
	c := New[int](0)
	var computes atomic.Int64
	release := make(chan struct{})
	const workers = 16
	var wg sync.WaitGroup
	results := make([]int, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, _, err := c.Do("ak", func() (int, error) {
				computes.Add(1)
				<-release // hold the flight open so others must coalesce
				return 7, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[w] = v
		}()
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times; want 1 (stats %+v)", n, c.Stats())
		return
	}
	for w, v := range results {
		if v != 7 {
			t.Errorf("worker %d got %d; want 7", w, v)
			return
		}
	}
	st := c.Stats()
	if st.Coalesced+st.Hits < workers-1 {
		t.Errorf("stats %+v: %d workers should have shared one compute", st, workers)
	}
	// Counter invariant: each Do is exactly one lookup. One worker computed
	// (the sole miss); every other worker shared the successful result —
	// from the flight or the cache — and counts as exactly one hit.
	if st.Misses != 1 || st.Hits != workers-1 {
		t.Errorf("stats %+v: want Misses=1, Hits=%d", st, workers-1)
	}
	if st.Hits+st.Misses != workers {
		t.Errorf("stats %+v: Hits+Misses = %d; want %d lookups", st, st.Hits+st.Misses, workers)
	}
}

// TestDoErrorNotCached: a failing compute is reported to every waiter and
// leaves nothing behind, so the next Do retries.
func TestDoErrorNotCached(t *testing.T) {
	c := New[int](0)
	boom := fmt.Errorf("boom")
	if _, _, err := c.Do("ak", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("err = %v; want boom", err)
	}
	if _, ok := c.Get("ak"); ok {
		t.Fatal("error result was cached")
	}
	v, hit, err := c.Do("ak", func() (int, error) { return 5, nil })
	if err != nil || v != 5 || hit {
		t.Fatalf("retry = %d, hit=%v, err=%v; want 5, false, nil", v, hit, err)
	}
}

// TestConcurrentHammer mixes Get/Put/Do across goroutines and shards
// under -race: correctness here is "no race, no deadlock, values are
// whatever some Put for that key wrote" — plus the Stats counter
// invariant, Hits + Misses == lookups, which the old implementation
// violated by double-counting coalesced Do calls (head-probe miss
// followed by a flight-share hit).
func TestConcurrentHammer(t *testing.T) {
	c := New[int](64) // small: force constant eviction
	const workers = 8
	const ops = 500
	var lookups atomic.Int64 // Get + Do calls issued
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("%c%d", byte('a'+(i%7)), i%97)
				switch (w + i) % 3 {
				case 0:
					c.Put(k, i)
				case 1:
					lookups.Add(1)
					c.Get(k)
				default:
					lookups.Add(1)
					if _, _, err := c.Do(k, func() (int, error) { return i, nil }); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if c.Len() > 64+shardCount {
		t.Fatalf("cache grew past its bound: %d", c.Len())
	}
	st := c.Stats()
	if got, want := st.Hits+st.Misses, lookups.Load(); got != want {
		t.Fatalf("counter invariant broken: Hits(%d)+Misses(%d) = %d; want %d lookups (stats %+v)",
			st.Hits, st.Misses, got, want, st)
	}
}
