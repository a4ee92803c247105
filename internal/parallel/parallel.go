// Package parallel provides the bounded-concurrency primitives the
// planning and evaluation engines share: a deterministic slot-indexed
// ForEach (every fan-out, with or without a context) and a semaphore for
// structured fork/join recursion. The module deliberately avoids external
// dependencies (golang.org/x/sync is not vendored), so these are small
// self-contained equivalents.
//
// Every helper honours the convention used across the repo's Options
// types: a worker count of 0 means "one worker per available CPU"
// (runtime.GOMAXPROCS), and 1 selects the serial reference path, which
// runs entirely on the calling goroutine — no goroutines are spawned, so
// results are trivially deterministic and stack traces stay linear.
package parallel

import (
	"context"
	"runtime"
	"sync"
)

// Workers resolves a Parallelism-style knob: 0 → GOMAXPROCS, otherwise
// the knob itself (minimum 1).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs fn(i) for i in [0, n) using at most Workers(workers)
// goroutines and returns the lowest-index error, regardless of which
// task failed first in wall-clock time — so error reporting is as
// deterministic as the serial loop it replaces. With workers 1 the loop
// runs inline in index order and stops at the first error, exactly like
// the serial code it replaces.
func ForEach(n, workers int, fn func(i int) error) error {
	return ForEachCtx(context.Background(), n, workers, fn)
}

// ForEachCtx is ForEach bound to a context: once ctx is done, no further
// index is started and ctx.Err() is recorded for every index not yet
// begun, so the lowest-index error a canceled run reports is either a
// task's own error or the context's. Indexes already running are not
// interrupted — cancellation-aware tasks observe ctx themselves.
func ForEachCtx(ctx context.Context, n, workers int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	done := ctx.Done()
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				select {
				case <-done:
					errs[i] = ctx.Err()
				default:
					errs[i] = fn(i)
				}
			}
		}()
	}
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			for j := i; j < n; j++ {
				errs[j] = ctx.Err()
			}
			break feed
		}
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Sem is a weighted token bucket for structured fork/join recursion: a
// recursive splitter calls TryAcquire before forking a child onto a new
// goroutine and falls back to inline execution when no token is
// available, bounding total goroutines without ever blocking the
// recursion itself.
type Sem struct {
	tokens chan struct{}
}

// NewSem returns a semaphore with Workers(n)−1 tokens: the calling
// goroutine itself counts as one worker, so a Parallelism of 1 yields an
// empty bucket and TryAcquire always fails — the serial reference path.
func NewSem(n int) *Sem {
	w := Workers(n) - 1
	if w <= 0 {
		return &Sem{}
	}
	s := &Sem{tokens: make(chan struct{}, w)}
	for i := 0; i < w; i++ {
		s.tokens <- struct{}{}
	}
	return s
}

// TryAcquire takes a token if one is free.
func (s *Sem) TryAcquire() bool {
	if s == nil || s.tokens == nil {
		return false
	}
	select {
	case <-s.tokens:
		return true
	default:
		return false
	}
}

// Release returns a token taken with TryAcquire.
func (s *Sem) Release() {
	if s != nil && s.tokens != nil {
		s.tokens <- struct{}{}
	}
}
