package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Cancellation support for the hierarchical search. Every search entry
// point takes a context; context.Background(), whose nil Done channel
// keeps the per-subproblem check a single nil comparison, gives the same
// plan and performs the same work as a search with no cancellation
// support at all.
//
// Abort consistency: a canceled search returns ErrCanceled or
// ErrDeadlineExceeded and never publishes partial results. A memo —
// per-search, retained by an engine, or the cross-run cache's — only
// stores successfully solved subproblems (errors are never cached), so
// whatever an aborted search leaves behind is a valid, complete solution
// that later searches may reuse.

// ErrCanceled reports a search aborted by context cancellation (a client
// disconnect, an explicit CancelFunc). It wraps context.Canceled, so
// errors.Is works against either sentinel.
var ErrCanceled = fmt.Errorf("core: search canceled: %w", context.Canceled)

// ErrDeadlineExceeded reports a search aborted by a context deadline. It
// wraps context.DeadlineExceeded, so errors.Is works against either
// sentinel.
var ErrDeadlineExceeded = fmt.Errorf("core: search deadline exceeded: %w", context.DeadlineExceeded)

// WrapCtxErr maps a context error (possibly already wrapped) to the
// package's typed sentinel; other errors pass through unchanged. Fan-out
// primitives outside the planner surface raw context errors; callers
// pass them through here so every abort reports ErrCanceled or
// ErrDeadlineExceeded.
func WrapCtxErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, ErrCanceled) || errors.Is(err, ErrDeadlineExceeded):
		return err
	case errors.Is(err, context.DeadlineExceeded):
		return ErrDeadlineExceeded
	case errors.Is(err, context.Canceled):
		return ErrCanceled
	default:
		return err
	}
}

// checkCtx is the periodic cancellation probe on the search's hot path:
// a nil comparison when no context was supplied, one non-blocking channel
// poll otherwise, plus a clock read when the context has a deadline.
// Called once per subproblem visit and before every DP run of a split's
// type/ratio alternation (at most maxRatioIters per split) — granular
// enough to abort a ResNet-50-scale search within a fraction of a
// millisecond, far off any profile. The clock read is what makes that
// hold for deadlines: ctx's Done channel closes only once the runtime
// runs the deadline timer's goroutine, which waits for a preemption
// (some 10 ms) while the search keeps every P busy.
func (p *planner) checkCtx() error {
	if p.done == nil {
		return nil
	}
	select {
	case <-p.done:
		return WrapCtxErr(p.ctx.Err())
	default:
	}
	if !p.deadline.IsZero() && !time.Now().Before(p.deadline) {
		return ErrDeadlineExceeded
	}
	return nil
}
