package core

import (
	"context"
	"errors"
	"fmt"
)

// Cancellation support for the hierarchical search. Every search entry
// point takes a context; context.Background(), whose nil Done channel
// keeps the per-subproblem check a single nil comparison, gives the same
// plan and performs the same work as a search with no cancellation
// support at all.
//
// Abort consistency: a canceled search returns ErrCanceled or
// ErrDeadlineExceeded and never publishes partial results. The
// per-search memo and the shared cross-run cache only store successfully
// solved subproblems (errors are never cached), so an aborted search
// leaves both exactly as a never-started search would — any subproblems
// it fully solved before the abort are valid, complete solutions and
// remain reusable.

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

// isAbort reports whether err is a cancellation or deadline abort (of
// this search or, through singleflight coalescing, another's).
func isAbort(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// checkCtx is the periodic cancellation probe on the search's hot path:
// a nil comparison when no context was supplied, one non-blocking channel
// poll otherwise. Called once per subproblem visit and once per
// type/ratio alternation — granular enough to abort a ResNet-50-scale
// search within a fraction of a millisecond, far off any profile.
func (p *planner) checkCtx() error {
	if p.done == nil {
		return nil
	}
	select {
	case <-p.done:
		return WrapCtxErr(p.ctx.Err())
	default:
		return nil
	}
}

// ctxLive reports whether this planner's own context is still live (a
// planner without a context always is). Distinguishes our abort from a
// coalesced flight aborted by some other search's context.
func (p *planner) ctxLive() bool {
	return p.ctx == nil || p.ctx.Err() == nil
}
