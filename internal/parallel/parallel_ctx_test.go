package parallel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestForEachCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEachCtx(ctx, 16, 4, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d iterations ran under a canceled context, want 0", n)
	}
}

func TestForEachCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEachCtx(ctx, 64, 2, func(i int) error {
		if ran.Add(1) == 4 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 64 {
		t.Fatalf("all %d iterations ran despite mid-run cancel", n)
	}
}

func TestForEachCtxBackgroundMatchesForEach(t *testing.T) {
	var a, b atomic.Int64
	if err := ForEach(32, 4, func(i int) error { a.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEachCtx(context.Background(), 32, 4, func(i int) error { b.Add(1); return nil }); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 32 || b.Load() != 32 {
		t.Fatalf("ran %d/%d iterations, want 32/32", a.Load(), b.Load())
	}
}
