package objectstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"scoop/internal/clock"
	"scoop/internal/storlet"
)

// ErrTruncated marks a response body that ended before delivering the
// advertised Content-Length — the signature of a connection dropped
// mid-transfer. The client retries these with a ranged re-read; when every
// attempt fails, the error it returns wraps ErrTruncated.
var ErrTruncated = errors.New("objectstore: response body truncated")

// RetryPolicy configures the HTTP client's handling of transient failures:
// capped exponential backoff with full jitter (AWS-style), applied only to
// idempotent, replayable requests and only to retriable failures. It is the
// client's one pacing rule: no server hint overrides it. The zero value
// means "defaults", so existing constructors keep working.
type RetryPolicy struct {
	// MaxAttempts bounds the tries of one request, the first included; 0
	// means 4, and 1 means no retry. A resume of a cut body is a new ranged
	// request with the same bound.
	MaxAttempts int
	// BaseDelay is the first backoff ceiling; 0 means 25ms. Attempt k
	// sleeps a uniformly random duration in [0, min(MaxDelay, BaseDelay<<k)).
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling; 0 means 1s.
	MaxDelay time.Duration
	// Seed seeds the jitter source; 0 means 1. A fixed seed makes the
	// delay sequence deterministic, which the chaos suite relies on.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = time.Second
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// jitter draws backoff delays; it is seeded per client, never from the
// global rand, so a seeded run replays the exact same sleep sequence.
type jitter struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newJitter(seed int64) *jitter {
	return &jitter{rng: rand.New(rand.NewSource(seed))}
}

// backoff returns the sleep before retry number `retry` (0-based): a full-
// jitter draw from [0, min(maxDelay, baseDelay<<retry)).
func (j *jitter) backoff(p RetryPolicy, retry int) time.Duration {
	p = p.withDefaults()
	ceiling := p.BaseDelay
	for i := 0; i < retry && ceiling < p.MaxDelay; i++ {
		ceiling *= 2
	}
	if ceiling > p.MaxDelay {
		ceiling = p.MaxDelay
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return time.Duration(j.rng.Int63n(int64(ceiling)))
}

// idempotentMethod reports whether the verb may be retried per RFC 9110
// §9.2.2. POST and PATCH are not; everything the store speaks is.
func idempotentMethod(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodPut,
		http.MethodDelete, http.MethodOptions, http.MethodTrace:
		return true
	default:
		return false
	}
}

// retriable reports whether resp is worth another attempt: a pushdown
// failure when its class says so, any other response when its status
// signals a transient server condition (request timeout, throttling, any
// 5xx).
func retriable(resp *http.Response) bool {
	if reason := resp.Header.Get(HeaderPushdownUnavailable); reason != "" {
		return storlet.ForReason(reason).Retry
	}
	code := resp.StatusCode
	return code == http.StatusRequestTimeout || code == http.StatusTooManyRequests || code >= 500
}

// doRetry runs one logical request with the client's retry policy; it is
// the client's one attempt loop. build must return a fresh *http.Request on
// every call (bodies are consumed by failed attempts). Requests are retried
// only when the verb is idempotent AND the body is replayable; retriable
// failures are transport errors and retriable responses. The final
// attempt's response is returned as-is so the caller's status handling
// still applies.
func (c *HTTPClient) doRetry(ctx context.Context, method string, replayable bool, build func() (*http.Request, error)) (*http.Response, error) {
	p := c.Retry.withDefaults()
	attempts := p.MaxAttempts
	if !idempotentMethod(method) || !replayable {
		attempts = 1
	}
	var lastErr error
	for try := 0; try < attempts; try++ {
		if try > 0 {
			c.Metrics.Counter("client.retries").Inc()
			if err := clock.Sleep(ctx, c.jit().backoff(p, try-1)); err != nil {
				return nil, fmt.Errorf("objectstore: retry aborted: %w (last failure: %w)", err, lastErr)
			}
		}
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.httpc().Do(req)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, err
			}
			continue
		}
		if try < attempts-1 && retriable(resp) {
			lastErr = fmt.Errorf("objectstore: http %d on %s %s", resp.StatusCode, method, req.URL.Path)
			drainClose(resp.Body)
			continue
		}
		// Every settled response passes through here — the one place the
		// client can watch the store's placement epoch drift.
		c.observeRing(resp)
		return resp, nil
	}
	return nil, lastErr
}

// resumeRanged is the client's reopen rule for plain (unfiltered) GET bodies
// (see recoveringReader): after a mid-stream failure, and one backoff, the
// rest of the body, [off, end), is re-requested as a ranged GET through the
// same attempt loop. It is only ever used when the response advertised a
// Content-Length, so every short read is detectable, and never for pushdown
// streams, whose filtered bytes are not byte-addressable and must not be
// re-requested mid-flight. etag is the version guard: a resume must not
// splice another version onto the delivered prefix.
func (c *HTTPClient) resumeRanged(ctx context.Context, account, container, object, etag string, end int64) func(int64, error) (io.ReadCloser, error) {
	return func(off int64, cause error) (io.ReadCloser, error) {
		c.Metrics.Counter("client.resumes").Inc()
		if err := clock.Sleep(ctx, c.jit().backoff(c.Retry, 0)); err != nil {
			return nil, fmt.Errorf("objectstore: resume aborted: %w (last failure: %w)", err, cause)
		}
		resp, err := c.get(ctx, account, container, object, GetOptions{RangeStart: off, RangeEnd: end})
		if err != nil {
			return nil, fmt.Errorf("%w at offset %d: %w", ErrTruncated, off, err)
		}
		if got := resp.Header.Get("ETag"); got != "" && etag != "" && got != etag {
			drainClose(resp.Body)
			return nil, fmt.Errorf("%w at offset %d: object changed mid-read (etag %s -> %s)",
				ErrTruncated, off, etag, got)
		}
		return resp.Body, nil
	}
}
