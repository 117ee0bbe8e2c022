// Package clock holds the one cancellable wait the store, the compute
// driver, the fault injector and the background maintenance loops share.
package clock

import (
	"context"
	"time"
)

// Sleep waits d, returning ctx's error as soon as ctx is done — a retry
// backoff, an injected latency or a loop's pause never outlives the work it
// delays. A non-positive d does not wait and returns ctx.Err().
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
