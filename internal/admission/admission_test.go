package admission

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSemFastPath(t *testing.T) {
	s := NewSem(2, 0)
	if !s.TryAcquire(1) || !s.TryAcquire(1) {
		t.Fatal("two unit acquires must fit capacity 2")
	}
	if s.TryAcquire(1) {
		t.Fatal("third acquire must fail at capacity")
	}
	s.Release(1)
	if !s.TryAcquire(1) {
		t.Fatal("acquire after release must succeed")
	}
	if got := s.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
}

func TestSemWeightClamped(t *testing.T) {
	s := NewSem(4, 0)
	// A weight beyond capacity is admitted by occupying the whole
	// semaphore rather than deadlocking forever.
	if !s.TryAcquire(100) {
		t.Fatal("over-capacity weight must clamp and admit")
	}
	if s.TryAcquire(1) {
		t.Fatal("clamped heavyweight must occupy everything")
	}
	s.Release(100)
	if got := s.InFlight(); got != 0 {
		t.Fatalf("InFlight after clamped release = %d, want 0", got)
	}
}

func TestSemQueueBound(t *testing.T) {
	s := NewSem(1, 1)
	if !s.TryAcquire(1) {
		t.Fatal("first acquire")
	}
	// One waiter fits the queue.
	done := make(chan error, 1)
	go func() { done <- s.Acquire(context.Background(), 1) }()
	waitFor(t, func() bool { return s.QueueLen() == 1 })
	// The second waiter overflows the bound and sheds immediately.
	if err := s.Acquire(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("queue overflow error = %v, want ErrQueueFull", err)
	}
	s.Release(1)
	if err := <-done; err != nil {
		t.Fatalf("queued acquire = %v", err)
	}
	s.Release(1)
}

func TestSemZeroQueueShedsImmediately(t *testing.T) {
	s := NewSem(1, 0)
	if !s.TryAcquire(1) {
		t.Fatal("first acquire")
	}
	if err := s.Acquire(context.Background(), 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("acquire with zero queue = %v, want ErrQueueFull", err)
	}
}

// TestSemFIFO asserts waiters are granted in arrival order, and that
// TryAcquire never barges past a queued waiter.
func TestSemFIFO(t *testing.T) {
	s := NewSem(1, -1)
	if !s.TryAcquire(1) {
		t.Fatal("seed acquire")
	}
	const waiters = 8
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := s.Acquire(context.Background(), 1); err != nil {
				t.Errorf("waiter %d: %v", i, err)
				return
			}
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			s.Release(1)
		}(i)
		// Serialize arrival so FIFO order is observable.
		waitFor(t, func() bool { return s.QueueLen() == i+1 })
	}
	if s.TryAcquire(1) {
		t.Fatal("TryAcquire must not barge past queued waiters")
	}
	s.Release(1)
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
}

func TestSemAcquireCanceledWhileQueued(t *testing.T) {
	s := NewSem(1, -1)
	if !s.TryAcquire(1) {
		t.Fatal("seed acquire")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Acquire(ctx, 1) }()
	waitFor(t, func() bool { return s.QueueLen() == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled acquire = %v, want context.Canceled", err)
	}
	if got := s.QueueLen(); got != 0 {
		t.Fatalf("QueueLen after abandon = %d, want 0", got)
	}
	// The abandoned waiter must not have leaked weight.
	s.Release(1)
	if got := s.InFlight(); got != 0 {
		t.Fatalf("InFlight = %d, want 0", got)
	}
}

// TestSemRaceHammer exercises the semaphore under -race with mixed
// try/blocking/canceled acquires and asserts conservation: everything
// acquired is released and the semaphore ends empty.
func TestSemRaceHammer(t *testing.T) {
	s := NewSem(4, 8)
	var wg sync.WaitGroup
	var admitted, rejected atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := int64(1 + (g+i)%3)
				switch {
				case i%5 == 0:
					if s.TryAcquire(w) {
						admitted.Add(1)
						s.Release(w)
					} else {
						rejected.Add(1)
					}
				case i%7 == 0:
					ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
					err := s.Acquire(ctx, w)
					cancel()
					if err == nil {
						admitted.Add(1)
						s.Release(w)
					} else {
						rejected.Add(1)
					}
				default:
					if err := s.Acquire(context.Background(), w); err != nil {
						rejected.Add(1)
					} else {
						admitted.Add(1)
						s.Release(w)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := s.InFlight(); got != 0 {
		t.Fatalf("InFlight after hammer = %d, want 0", got)
	}
	if got := s.QueueLen(); got != 0 {
		t.Fatalf("QueueLen after hammer = %d, want 0", got)
	}
	if admitted.Load() == 0 {
		t.Fatal("hammer admitted nothing")
	}
	t.Logf("admitted %d, rejected %d", admitted.Load(), rejected.Load())
}

func TestGuardShedsWith429(t *testing.T) {
	c := NewController(1, 0, 2*time.Second)
	release := make(chan struct{})
	started := make(chan struct{})
	slow := c.Guard(1, nil, func(w http.ResponseWriter, r *http.Request) {
		close(started)
		<-release
	})
	go func() {
		rec := httptest.NewRecorder()
		slow(rec, httptest.NewRequest("POST", "/v1/plan", nil))
	}()
	<-started

	rec := httptest.NewRecorder()
	shedBefore := obsShed.Value()
	c.Guard(1, nil, func(http.ResponseWriter, *http.Request) {
		t.Error("handler ran while semaphore full")
	})(rec, httptest.NewRequest("POST", "/v1/plan", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("code = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	if obsShed.Value() != shedBefore+1 {
		t.Fatalf("admission.shed did not count the 429")
	}
	close(release)
}

func TestGuardQueuedClientDisconnect(t *testing.T) {
	c := NewController(1, 4, time.Second)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		rec := httptest.NewRecorder()
		c.Guard(1, nil, func(w http.ResponseWriter, r *http.Request) {
			close(started)
			<-release
		})(rec, httptest.NewRequest("POST", "/v1/plan", nil))
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("POST", "/v1/plan", nil).WithContext(ctx)
	rec := httptest.NewRecorder()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Guard(1, nil, func(http.ResponseWriter, *http.Request) {
			t.Error("handler ran for a disconnected client")
		})(rec, req)
	}()
	waitFor(t, func() bool { return c.Sem().QueueLen() == 1 })
	cancel()
	<-done
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("code = %d, want 503", rec.Code)
	}
	close(release)
}

func TestRecoverConvertsPanicTo500(t *testing.T) {
	before := obsPanics.Value()
	h := Recover(func(http.ResponseWriter, *http.Request) { panic("boom") })
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest("POST", "/v1/plan", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("code = %d, want 500", rec.Code)
	}
	if obsPanics.Value() != before+1 {
		t.Fatal("serve.panics did not count the panic")
	}
}

// waitFor polls cond for up to ~2s; the admission tests use it to
// serialize goroutine arrival without sleeps baked into assertions.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}

// InFlight returns the weight currently held.
func (s *Sem) InFlight() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// QueueLen returns the number of queued waiters.
func (s *Sem) QueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.waiters.Len()
}
