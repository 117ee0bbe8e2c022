package clock

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSleepCtxCancelAbortsImmediately: cancellation must interrupt a
// backoff sleep at once, not after the timer fires.
func TestSleepCtxCancelAbortsImmediately(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := Sleep(ctx, time.Hour)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("sleep took %v after cancellation", elapsed)
	}
}

// TestSleepZeroReportsContext: a non-positive wait returns at once with the
// context's state, so a caller's dead context is never mistaken for a
// finished wait.
func TestSleepZeroReportsContext(t *testing.T) {
	if err := Sleep(context.Background(), 0); err != nil {
		t.Fatalf("Sleep(live, 0) = %v, want nil", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := Sleep(ctx, -time.Second); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep(dead, -1s) = %v, want context.Canceled", err)
	}
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep(live, 1ms) = %v, want nil", err)
	}
}
