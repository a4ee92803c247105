// Package admission is the overload-robustness layer in front of the
// planning service: a weighted semaphore with a strict-FIFO bounded wait
// queue, an http middleware that sheds load with 429 + Retry-After when
// the queue is full, and a panic-recovery middleware that converts
// handler panics into 500s instead of torn connections.
//
// The model is the classic bounded-queue server: at most C units of work
// run concurrently (each endpoint acquires a weight proportional to the
// work it fans out), at most Q requests wait, and everything beyond that
// is rejected immediately — the cheapest possible outcome for a request
// the server could not have served in time anyway. Rejection is explicit
// (429 with a Retry-After hint) so well-behaved clients back off instead
// of retry-storming, and the wait queue is strictly first-in-first-out so
// latency under load stays predictable instead of lottery-shaped.
//
// Like the rest of the stack, the package is zero-dependency and reports
// into the process-wide obs registry.
package admission

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// ErrQueueFull reports an acquire rejected because the wait queue was at
// capacity — the load-shedding signal.
var ErrQueueFull = errors.New("admission: wait queue full")

// waiter is one queued Acquire: it is granted by handing grant a value
// (releasing the tokens to it) or abandoned via ctx.
type waiter struct {
	n     int64
	grant chan struct{}
}

// Sem is a weighted semaphore with a strict-FIFO wait queue bounded to a
// fixed number of waiters. Unlike x/sync/semaphore, a full queue fails
// fast with ErrQueueFull instead of queueing unboundedly — the property
// the load-shedding middleware is built on.
type Sem struct {
	mu       sync.Mutex
	size     int64 // total capacity in weight units
	cur      int64 // weight currently held
	maxQueue int   // waiter bound; 0 means no waiting at all
	waiters  list.List
}

// NewSem returns a semaphore with the given weight capacity and wait
// queue bound. size is clamped to at least 1; a negative maxQueue means
// an unbounded queue (tests and non-shedding callers).
func NewSem(size int64, maxQueue int) *Sem {
	if size < 1 {
		size = 1
	}
	return &Sem{size: size, maxQueue: maxQueue}
}

// Capacity returns the total weight capacity.
func (s *Sem) Capacity() int64 { return s.size }

// clamp bounds a request's weight to the semaphore capacity so a single
// heavyweight endpoint can still be admitted (it just occupies the whole
// semaphore) instead of deadlocking forever.
func (s *Sem) clamp(n int64) int64 {
	if n < 1 {
		n = 1
	}
	if n > s.size {
		n = s.size
	}
	return n
}

// TryAcquire takes n weight units without waiting. It fails whenever the
// tokens are not immediately available OR someone is already queued —
// barging past the FIFO queue would starve the queued waiters.
func (s *Sem) TryAcquire(n int64) bool {
	n = s.clamp(n)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.waiters.Len() == 0 && s.cur+n <= s.size {
		s.cur += n
		return true
	}
	return false
}

// Acquire takes n weight units, waiting in FIFO order behind earlier
// acquirers. It fails with ErrQueueFull when the wait queue is at its
// bound, and with ctx.Err() when the context ends first; in both failure
// cases no weight is held.
func (s *Sem) Acquire(ctx context.Context, n int64) error {
	n = s.clamp(n)
	s.mu.Lock()
	if s.waiters.Len() == 0 && s.cur+n <= s.size {
		s.cur += n
		s.mu.Unlock()
		return nil
	}
	if s.maxQueue >= 0 && s.waiters.Len() >= s.maxQueue {
		s.mu.Unlock()
		return ErrQueueFull
	}
	w := waiter{n: n, grant: make(chan struct{})}
	elem := s.waiters.PushBack(w)
	s.mu.Unlock()

	select {
	case <-w.grant:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		select {
		case <-w.grant:
			// The grant raced the cancellation and won: we hold the weight.
			// Honour the context by giving it straight back.
			s.cur -= w.n
			s.notify()
		default:
			s.waiters.Remove(elem)
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}

// Release returns n weight units and grants as many queued waiters as
// now fit, in FIFO order.
func (s *Sem) Release(n int64) {
	n = s.clamp(n)
	s.mu.Lock()
	s.cur -= n
	if s.cur < 0 {
		panic("admission: Release without matching Acquire")
	}
	s.notify()
	s.mu.Unlock()
}

// notify grants queued waiters while tokens suffice. Caller holds mu.
// Strict FIFO: the scan stops at the first waiter that does not fit, even
// if a later, lighter one would — skipping ahead would starve heavy
// requests under a stream of light ones.
func (s *Sem) notify() {
	for {
		front := s.waiters.Front()
		if front == nil {
			return
		}
		w := front.Value.(waiter)
		if s.cur+w.n > s.size {
			return
		}
		s.cur += w.n
		s.waiters.Remove(front)
		close(w.grant)
	}
}
