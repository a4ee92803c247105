package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeTimerBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c")
	f := r.NewFloatCounter("f")
	g := r.NewGauge("g")
	tm := r.NewTimer("t")

	c.Inc()
	c.Add(41)
	f.Add(1.5)
	f.Add(2.5)
	g.Set(3)
	g.Set(7.5)
	tm.Observe(2 * time.Second)
	tm.Observe(500 * time.Millisecond)

	if v := c.Value(); v != 42 {
		t.Errorf("counter = %d; want 42", v)
	}
	if v := f.Value(); v != 4 {
		t.Errorf("float counter = %g; want 4", v)
	}
	if v := g.Value(); v != 7.5 {
		t.Errorf("gauge = %g; want 7.5", v)
	}
	count, total := tm.Stats()
	if count != 2 || total != 2500*time.Millisecond {
		t.Errorf("timer = %d, %v; want 2, 2.5s", count, total)
	}

	s := r.Snapshot()
	if s.Counters["c"] != 42 || s.Gauges["f"] != 4 || s.Gauges["g"] != 7.5 {
		t.Errorf("snapshot %+v", s)
	}
	if ts := s.Timers["t"]; ts.Count != 2 || ts.TotalSeconds != 2.5 {
		t.Errorf("timer snapshot %+v", ts)
	}
	if ts := s.Timers["t"]; ts.MinSeconds != 0.5 || ts.MaxSeconds != 2 {
		t.Errorf("timer extremes %+v; want min 0.5s max 2s", ts)
	}
}

func TestRegistryWriters(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("alpha").Add(3)
	r.NewFloatCounter("beta").Add(1.25)
	r.NewTimer("gamma").Observe(time.Second)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("WriteJSON output does not parse: %v", err)
	}
	if s.Counters["alpha"] != 3 || s.Gauges["beta"] != 1.25 || s.Timers["gamma"].Count != 1 {
		t.Errorf("round-tripped snapshot %+v", s)
	}

	buf.Reset()
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{"alpha 3", "beta 1.25", "gamma 1 1s p50=1s p95=1s p99=1s"}
	if len(lines) != len(want) {
		t.Fatalf("text lines %q; want %q", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("text line %d = %q; want %q", i, lines[i], want[i])
		}
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup")
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.NewGauge("dup")
}

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c")
	f := r.NewFloatCounter("f")
	const workers, perWorker = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				f.Add(0.5)
			}
		}()
	}
	wg.Wait()
	if v := c.Value(); v != workers*perWorker {
		t.Errorf("counter = %d; want %d", v, workers*perWorker)
	}
	if v := f.Value(); v != workers*perWorker*0.5 {
		t.Errorf("float counter = %g; want %g", v, workers*perWorker*0.5)
	}
}

// TestObsDisabledZeroAllocs is the disabled-path contract: with no tracer
// anywhere — attached to the process or carried by a context — the full
// instrumented sequence (counter, float counter, timer, span begin/end
// with a nil and a background context) must not allocate. BenchmarkObsDisabled reports
// the same property as allocs/op.
func TestObsDisabledZeroAllocs(t *testing.T) {
	var c Counter
	var f FloatCounter
	var tm Timer
	var g Gauge
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(1)
		f.Add(0.25)
		g.Add(1)
		g.Add(-1)
		tm.Observe(time.Microsecond)
		sp := StartSpanCtx(nil, "bench", "noop") //nolint:staticcheck // nil ctx is part of the contract
		sp.End()
		cs := StartSpanCtx(ctx, "bench", "noop")
		cs.End()
	})
	if allocs != 0 {
		t.Errorf("disabled observability path allocates %g allocs/op; want 0", allocs)
	}
}

// BenchmarkObsDisabled measures the instrumented hot-path sequence with no
// sink attached; -benchmem must report 0 allocs/op.
func BenchmarkObsDisabled(b *testing.B) {
	var c Counter
	var f FloatCounter
	var g Gauge
	var tm Timer
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
		f.Add(0.25)
		g.Add(1)
		g.Add(-1)
		tm.Observe(time.Microsecond)
		sp := StartSpanCtx(nil, "bench", "noop") //nolint:staticcheck // nil ctx is part of the contract
		sp.End()
		cs := StartSpanCtx(ctx, "bench", "noop")
		cs.End()
	}
}
