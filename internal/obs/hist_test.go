package obs

import (
	"math"
	"testing"
	"time"
)

func TestTimerHistStats(t *testing.T) {
	var tm Timer
	// 100 observations: 1ms ×90, 100ms ×9, 1s ×1.
	for i := 0; i < 90; i++ {
		tm.Observe(time.Millisecond)
	}
	for i := 0; i < 9; i++ {
		tm.Observe(100 * time.Millisecond)
	}
	tm.Observe(time.Second)

	h := tm.HistStats()
	if h.Count != 100 {
		t.Fatalf("count = %d; want 100", h.Count)
	}
	wantTotal := 0.09*1 + 0.9 + 1 // 90ms + 900ms + 1s = 1.99s
	if math.Abs(h.TotalSeconds-wantTotal) > 1e-9 {
		t.Errorf("total = %g; want %g", h.TotalSeconds, wantTotal)
	}
	if h.MinSeconds != 0.001 || h.MaxSeconds != 1 {
		t.Errorf("min/max = %g/%g; want 0.001/1", h.MinSeconds, h.MaxSeconds)
	}
	// p50 lands in the 1ms bucket, p95 in the 100ms bucket, p99 at the
	// 100ms rank; log-bucket estimates are within 2× of the true value.
	if h.P50Seconds < 0.001 || h.P50Seconds > 0.002 {
		t.Errorf("p50 = %g; want ≈ 1ms", h.P50Seconds)
	}
	if h.P95Seconds < 0.1 || h.P95Seconds > 0.2 {
		t.Errorf("p95 = %g; want ≈ 100ms", h.P95Seconds)
	}
	if h.P99Seconds < 0.1 || h.P99Seconds > 0.2 {
		t.Errorf("p99 = %g; want ≈ 100ms", h.P99Seconds)
	}
	// Percentiles are ordered and clamped into the observed range.
	if !(h.MinSeconds <= h.P50Seconds && h.P50Seconds <= h.P95Seconds &&
		h.P95Seconds <= h.P99Seconds && h.P99Seconds <= h.MaxSeconds) {
		t.Errorf("percentiles not ordered: %+v", h)
	}
	// Buckets are cumulative, ending at the total count.
	if n := len(h.Buckets); n == 0 || h.Buckets[n-1].Count != 100 {
		t.Errorf("buckets %+v; want cumulative ending at 100", h.Buckets)
	}
	for i := 1; i < len(h.Buckets); i++ {
		if h.Buckets[i].Count < h.Buckets[i-1].Count ||
			h.Buckets[i].UpperSeconds <= h.Buckets[i-1].UpperSeconds {
			t.Errorf("bucket %d not monotone: %+v", i, h.Buckets)
		}
	}
}

func TestTimerEmptyAndEdgeObservations(t *testing.T) {
	var tm Timer
	h := tm.HistStats()
	if h.Count != 0 || h.MinSeconds != 0 || h.MaxSeconds != 0 || h.P99Seconds != 0 || len(h.Buckets) != 0 {
		t.Errorf("empty timer snapshot %+v; want all zero", h)
	}

	// Zero and negative durations clamp to the 0ns bucket.
	tm.Observe(0)
	tm.Observe(-time.Second)
	h = tm.HistStats()
	if h.Count != 2 || h.MinSeconds != 0 || h.MaxSeconds != 0 || h.TotalSeconds != 0 {
		t.Errorf("zero-duration snapshot %+v", h)
	}
	if len(h.Buckets) != 1 || h.Buckets[0].UpperSeconds != 0 || h.Buckets[0].Count != 2 {
		t.Errorf("zero-duration buckets %+v", h.Buckets)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		ns   int64
		want int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{int64(time.Second), 30},
		{math.MaxInt64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.ns); got != c.want {
			t.Errorf("bucketIndex(%d) = %d; want %d", c.ns, got, c.want)
		}
	}
	if !math.IsInf(bucketUpperNs(histBuckets-1), 1) {
		t.Error("overflow bucket upper bound is not +Inf")
	}
	// Every bucket's range check: upper(i-1) < 2^(i-1) ≤ member ≤ upper(i).
	for i := 1; i < histBuckets-1; i++ {
		lo := int64(1) << uint(i-1)
		if bucketIndex(lo) != i {
			t.Errorf("bucketIndex(%d) = %d; want %d", lo, bucketIndex(lo), i)
		}
	}
}

func TestSnapshotCarriesBuildMeta(t *testing.T) {
	s := NewRegistry().Snapshot()
	if s.Meta.Version == "" || s.Meta.GoVersion == "" {
		t.Errorf("snapshot meta %+v; want version and go_version set", s.Meta)
	}
	if s.Meta.GoMaxProcs < 1 || s.Meta.PID <= 0 || s.Meta.StartTime == "" {
		t.Errorf("snapshot meta %+v; want runtime facts set", s.Meta)
	}
	if _, err := time.Parse(time.RFC3339, s.Meta.StartTime); err != nil {
		t.Errorf("start time %q is not RFC 3339: %v", s.Meta.StartTime, err)
	}
}
