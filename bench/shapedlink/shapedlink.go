// Package shapedlink is a rate-shaped http.RoundTripper: the inter-cluster
// link of the paper's testbed, reduced to one process. Every request and
// response body that crosses it draws from one shared token bucket, so
// concurrent streams split the configured bandwidth the way flows split a
// real link, and every round trip pays a fixed delay. Unshaped (rate 0) it
// is still the request and byte counter of the benchmark.
//
// The package depends only on the standard library so it can move next to
// the other injectors unchanged.
package shapedlink

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// Grant is the largest slice of a body delivered per token draw: small
	// enough that concurrent streams interleave, large enough that the
	// bucket lock is not the bottleneck.
	Grant = 16 << 10
	// Burst is the bucket capacity: what an idle link lets through at once.
	Burst = 64 << 10
)

// Stats is a snapshot of the link's counters.
type Stats struct {
	// Requests counts round trips started (retries included).
	Requests int64
	// BytesUp and BytesDown count request and response body bytes.
	BytesUp, BytesDown int64
	// Waits counts token draws and round-trip delays that had to sleep;
	// Wait is the time they slept, summed over all concurrent streams.
	Waits int64
	Wait  time.Duration
}

// Bytes is the body traffic in both directions.
func (s Stats) Bytes() int64 { return s.BytesUp + s.BytesDown }

// Sub returns the counters accumulated since an earlier snapshot.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Requests:  s.Requests - earlier.Requests,
		BytesUp:   s.BytesUp - earlier.BytesUp,
		BytesDown: s.BytesDown - earlier.BytesDown,
		Waits:     s.Waits - earlier.Waits,
		Wait:      s.Wait - earlier.Wait,
	}
}

// Link wraps a base RoundTripper with shaping and counting.
type Link struct {
	base http.RoundTripper

	mu     sync.Mutex
	rate   float64 // bytes per second; 0 = unshaped
	delay  time.Duration
	tokens float64 // may go negative: a draw reserves its place in line
	last   time.Time

	requests, up, down, waits, waitNs atomic.Int64
}

// New returns an unshaped link over base.
func New(base http.RoundTripper) *Link { return &Link{base: base} }

// Shape sets the bandwidth (bytes per second, 0 = unlimited) and the fixed
// delay added to every round trip. It may be called between requests.
func (l *Link) Shape(bytesPerSecond float64, delay time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rate, l.delay = bytesPerSecond, delay
	l.tokens, l.last = Burst, time.Now()
}

// Rate returns the configured bandwidth in bytes per second (0 = unshaped).
func (l *Link) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

// Stats returns the current counters.
func (l *Link) Stats() Stats {
	return Stats{
		Requests:  l.requests.Load(),
		BytesUp:   l.up.Load(),
		BytesDown: l.down.Load(),
		Waits:     l.waits.Load(),
		Wait:      time.Duration(l.waitNs.Load()),
	}
}

// RoundTrip implements http.RoundTripper.
func (l *Link) RoundTrip(req *http.Request) (*http.Response, error) {
	l.requests.Add(1)
	l.mu.Lock()
	delay := l.delay
	l.mu.Unlock()
	if err := l.sleep(req.Context(), delay); err != nil {
		return nil, err
	}
	if req.Body != nil && req.Body != http.NoBody {
		// RoundTrip must not modify the caller's request.
		shaped := *req
		shaped.Body = &body{l: l, ctx: req.Context(), rc: req.Body, n: &l.up}
		req = &shaped
	}
	resp, err := l.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	resp.Body = &body{l: l, ctx: req.Context(), rc: resp.Body, n: &l.down}
	return resp, nil
}

// take draws n tokens, sleeping until the bucket has refilled enough. Draws
// queue in arrival order: each reserves its tokens under the lock (driving
// the balance negative) and sleeps off its own share of the debt, so the
// aggregate rate over all streams is the configured one.
func (l *Link) take(ctx context.Context, n int) error {
	l.mu.Lock()
	if l.rate <= 0 {
		l.mu.Unlock()
		return nil
	}
	now := time.Now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > Burst {
		l.tokens = Burst
	}
	l.last = now
	l.tokens -= float64(n)
	var wait time.Duration
	if l.tokens < 0 {
		wait = time.Duration(-l.tokens / l.rate * float64(time.Second))
	}
	l.mu.Unlock()
	if err := l.sleep(ctx, wait); err != nil {
		// Hand the reservation back so a cancelled stream does not charge
		// the streams still running.
		l.mu.Lock()
		l.tokens += float64(n)
		l.mu.Unlock()
		return err
	}
	return nil
}

// sleep waits d, counted as link wait, returning early when ctx ends.
func (l *Link) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	start := time.Now()
	t := time.NewTimer(d)
	defer t.Stop()
	defer func() {
		l.waits.Add(1)
		l.waitNs.Add(int64(time.Since(start)))
	}()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// body shapes and counts one request or response body.
type body struct {
	l   *Link
	ctx context.Context
	rc  io.ReadCloser
	n   *atomic.Int64
}

func (b *body) Read(p []byte) (int, error) {
	if len(p) > Grant {
		p = p[:Grant]
	}
	n, err := b.rc.Read(p)
	if n > 0 {
		b.n.Add(int64(n))
		// The bytes are charged after they are read, so the count is exact
		// and a stream that ends early pays only for what it moved.
		if terr := b.l.take(b.ctx, n); terr != nil {
			return n, terr
		}
	}
	return n, err
}

func (b *body) Close() error { return b.rc.Close() }
