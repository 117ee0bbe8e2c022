package objectstore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"scoop/internal/metrics"
	"scoop/internal/pushdown"
)

// HTTPClient implements Client against a store served by Handler — the
// disaggregated setup of the paper, where compute and storage talk over an
// inter-cluster network. Every request carries the caller's context, so a
// cancelled query aborts its in-flight round-trips.
//
// The client owns the connector-side half of the fault model: idempotent
// requests are retried with capped exponential backoff and seeded full
// jitter, retriable statuses (408/429/5xx) and transport errors count as
// transient, and plain GET bodies that end short of their Content-Length
// are transparently resumed with a ranged re-read. Pushdown (storlet)
// streams are never resumed mid-flight: filtered bytes are not
// byte-addressable, so only the pre-first-byte request is retried.
type HTTPClient struct {
	// BaseURL is the store endpoint, e.g. "http://lb.storage:8080".
	BaseURL string
	// HTTP is the underlying client; http.DefaultClient when nil.
	HTTP *http.Client
	// Retry is the transient-failure policy; the zero value enables the
	// defaults (4 attempts, 25ms–1s full-jitter backoff).
	Retry RetryPolicy
	// Metrics, when set, counts retries and resumes ("client.retries",
	// "client.resumes"); nil disables counting.
	Metrics *metrics.Registry

	jitOnce sync.Once
	jitter  *jitter

	// ringEpoch tracks the store's serving epoch as observed on response
	// headers (HeaderRingEpoch); ringMigrating mirrors HeaderRingMigrating.
	ringEpoch     atomic.Uint64
	ringMigrating atomic.Bool
}

// RingEpoch returns the last ring epoch observed on a store response and
// whether the store reported an open migration window there. Zero means no
// epoch header has been seen yet (old server, or no requests).
func (c *HTTPClient) RingEpoch() (epoch uint64, migrating bool) {
	return c.ringEpoch.Load(), c.ringMigrating.Load()
}

// observeRing decodes the ring headers off a response. Epoch changes are
// counted ("client.ring.epoch_changes") — a connector watching that counter
// knows its placement view churned mid-workload.
func (c *HTTPClient) observeRing(resp *http.Response) {
	v := resp.Header.Get(HeaderRingEpoch)
	if v == "" {
		return
	}
	epoch, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return
	}
	prev := c.ringEpoch.Swap(epoch)
	if prev != 0 && prev != epoch {
		c.Metrics.Counter("client.ring.epoch_changes").Inc()
	}
	c.ringMigrating.Store(resp.Header.Get(HeaderRingMigrating) == "true")
}

// NewHTTPClient returns a client for the given endpoint.
func NewHTTPClient(baseURL string) *HTTPClient {
	return &HTTPClient{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *HTTPClient) httpc() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// jit lazily builds the seeded jitter source so a caller may set Retry.Seed
// any time before the first request.
func (c *HTTPClient) jit() *jitter {
	c.jitOnce.Do(func() {
		c.jitter = newJitter(c.Retry.withDefaults().Seed)
	})
	return c.jitter
}

func (c *HTTPClient) url(parts ...string) string {
	return c.BaseURL + "/v1/" + strings.Join(parts, "/")
}

// do runs one bodyless (hence replayable) request under the retry policy.
func (c *HTTPClient) do(ctx context.Context, method, url string) (*http.Response, error) {
	return c.doRetry(ctx, method, true, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, method, url, nil)
	})
}

// CreateContainer implements Client.
func (c *HTTPClient) CreateContainer(ctx context.Context, account, container string, policy *ContainerPolicy) error {
	var headers http.Header
	if policy != nil {
		headers = http.Header{}
		if policy.DisablePushdown {
			headers.Set(HeaderDisablePushdown, "true")
		}
		if len(policy.PutPipeline) > 0 {
			enc, err := pushdown.EncodeChain(policy.PutPipeline)
			if err != nil {
				return err
			}
			headers.Set(HeaderPutPipeline, enc)
		}
	}
	resp, err := c.doRetry(ctx, http.MethodPut, true, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url(account, container), nil)
		if err != nil {
			return nil, err
		}
		for k, vs := range headers {
			req.Header[k] = vs
		}
		return req, nil
	})
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusCreated:
		return nil
	case http.StatusAccepted:
		return ErrContainerExists
	default:
		return statusErr(resp)
	}
}

// PutObject implements Client. The upload is retried only when the body can
// be replayed (an io.Seeker, e.g. bytes.Reader or os.File): a consumed
// one-shot stream must not be re-sent half-empty.
func (c *HTTPClient) PutObject(ctx context.Context, account, container, object string, r io.Reader, meta map[string]string) (ObjectInfo, error) {
	seeker, replayable := r.(io.Seeker)
	resp, err := c.doRetry(ctx, http.MethodPut, replayable, func() (*http.Request, error) {
		if replayable {
			if _, err := seeker.Seek(0, io.SeekStart); err != nil {
				return nil, fmt.Errorf("objectstore: rewind put body: %w", err)
			}
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.url(account, container, object), r)
		if err != nil {
			return nil, err
		}
		for k, v := range meta {
			req.Header.Set(metaHeaderPrefix+k, v)
		}
		return req, nil
	})
	if err != nil {
		return ObjectInfo{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		return ObjectInfo{}, statusErr(resp)
	}
	// A HEAD round-trip fills in size/etag authoritatively.
	return c.HeadObject(ctx, account, container, object)
}

// GetObject implements Client.
func (c *HTTPClient) GetObject(ctx context.Context, account, container, object string, opts GetOptions) (io.ReadCloser, ObjectInfo, error) {
	var pushdownEnc string
	if len(opts.Pushdown) > 0 {
		enc, err := pushdown.EncodeChain(opts.Pushdown)
		if err != nil {
			return nil, ObjectInfo{}, err
		}
		pushdownEnc = enc
	}
	resp, err := c.doRetry(ctx, http.MethodGet, true, func() (*http.Request, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url(account, container, object), nil)
		if err != nil {
			return nil, err
		}
		if opts.RangeStart != 0 || opts.RangeEnd > 0 {
			if opts.RangeEnd > 0 {
				req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", opts.RangeStart, opts.RangeEnd-1))
			} else {
				req.Header.Set("Range", fmt.Sprintf("bytes=%d-", opts.RangeStart))
			}
		}
		if pushdownEnc != "" {
			req.Header.Set(pushdown.HeaderName, pushdownEnc)
		}
		return req, nil
	})
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		defer drainClose(resp.Body)
		return nil, ObjectInfo{}, statusErr(resp)
	}
	info := infoFromResponse(resp, account, container, object)
	body := resp.Body
	if len(opts.Pushdown) > 0 {
		// Filtered streams carry mid-stream failures in the error trailer
		// (they have no Content-Length to check truncation against). Decode
		// it into a typed ErrFilterFailed at EOF.
		tc := &trailerChecked{rc: resp.Body, resp: resp}
		if status := resp.Header.Get(HeaderCacheStatus); status != "" {
			tc.cacheStatus = status
			c.Metrics.Counter("client.cache." + status).Inc()
		}
		body = tc
	}
	// Plain streams with a known length get mid-stream resume: a short body
	// is detected against Content-Length and re-read from the break via a
	// Range request. Filtered streams are exempt (not byte-addressable).
	if len(opts.Pushdown) == 0 && resp.ContentLength > 0 && !c.Retry.Disabled {
		end := opts.RangeStart + resp.ContentLength
		body = NewRecoveringReader(resp.Body, opts.RangeStart, end,
			c.resumeRanged(ctx, account, container, object, info.ETag, end))
	}
	return body, info, nil
}

// HeadObject implements Client.
func (c *HTTPClient) HeadObject(ctx context.Context, account, container, object string) (ObjectInfo, error) {
	resp, err := c.do(ctx, http.MethodHead, c.url(account, container, object))
	if err != nil {
		return ObjectInfo{}, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return ObjectInfo{}, statusErr(resp)
	}
	return infoFromResponse(resp, account, container, object), nil
}

// infoFromResponse reads object metadata off a GET/HEAD response. Size is
// the Content-Length: the range length on a ranged GET, -1 on a filtered one.
func infoFromResponse(resp *http.Response, account, container, object string) ObjectInfo {
	return ObjectInfo{
		Account: account, Container: container, Name: object,
		ETag: resp.Header.Get("ETag"), Size: resp.ContentLength, Meta: metaFromHeaders(resp.Header),
	}
}

// DeleteObject implements Client.
func (c *HTTPClient) DeleteObject(ctx context.Context, account, container, object string) error {
	resp, err := c.do(ctx, http.MethodDelete, c.url(account, container, object))
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusNoContent {
		return statusErr(resp)
	}
	return nil
}

// ListObjects implements Client.
func (c *HTTPClient) ListObjects(ctx context.Context, account, container, prefix string) ([]ObjectInfo, error) {
	url := c.url(account, container)
	if prefix != "" {
		url += "?prefix=" + prefix
	}
	resp, err := c.do(ctx, http.MethodGet, url)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr(resp)
	}
	var out []ObjectInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("objectstore: decode listing: %w", err)
	}
	return out, nil
}

// ListContainers implements Client.
func (c *HTTPClient) ListContainers(ctx context.Context, account string) ([]string, error) {
	resp, err := c.do(ctx, http.MethodGet, c.url(account))
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, statusErr(resp)
	}
	var out []string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("objectstore: decode container listing: %w", err)
	}
	return out, nil
}

// DeleteContainer implements Client.
func (c *HTTPClient) DeleteContainer(ctx context.Context, account, container string) error {
	resp, err := c.do(ctx, http.MethodDelete, c.url(account, container))
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil
	case http.StatusConflict:
		return ErrContainerNotEmpty
	default:
		return statusErr(resp)
	}
}

// statusErr converts an error response to the store's sentinel errors where
// possible so errors.Is works across the HTTP boundary.
func statusErr(resp *http.Response) error {
	body, err := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(body))
	if err != nil && msg == "" {
		msg = "error body unreadable: " + err.Error()
	}
	if reason := resp.Header.Get(HeaderPushdownUnavailable); reason != "" {
		return pushdownUnavailableErr(reason, resp.StatusCode, msg)
	}
	switch resp.StatusCode {
	case http.StatusNotFound:
		return fmt.Errorf("%w (%s)", ErrNotFound, msg)
	case http.StatusRequestedRangeNotSatisfiable:
		return fmt.Errorf("%w (%s)", ErrBadRange, msg)
	default:
		return fmt.Errorf("objectstore: http %d: %s", resp.StatusCode, msg)
	}
}

// trailerChecked surfaces the store's mid-stream filter-failure trailer as a
// typed error at stream end. Go's http client populates resp.Trailer only
// after the body reads io.EOF, so the check happens exactly there; bytes
// read in the same call as the EOF are delivered before the error.
type trailerChecked struct {
	rc          io.ReadCloser
	resp        *http.Response
	cacheStatus string // decoded HeaderCacheStatus, "" when absent
	err         error  // sticky decoded trailer error
}

// CacheStatus exposes how the store's result cache served this stream.
func (t *trailerChecked) CacheStatus() string { return t.cacheStatus }

//lint:ignore ctxpropagate Read implements io.Reader (fixed signature); Trailer.Get is a header-map lookup, not real I/O — cancellation flows through the request context already attached to t.rc.
func (t *trailerChecked) Read(p []byte) (int, error) {
	if t.err != nil {
		return 0, t.err
	}
	n, err := t.rc.Read(p)
	if errors.Is(err, io.EOF) {
		if msg := t.resp.Trailer.Get(HeaderFilterError); msg != "" {
			t.err = fmt.Errorf("%w: %s", ErrFilterFailed, msg)
			if n > 0 {
				return n, nil
			}
			err = t.err
		}
	}
	return n, err
}

func (t *trailerChecked) Close() error { return t.rc.Close() }

// drainMax bounds how much of a response body drainClose reads to make the
// connection reusable. Past this, draining costs more than a reconnect:
// a failed-mid-body GET of a huge object would otherwise stall the caller
// for the whole remainder, so we close (and drop) the connection instead.
const drainMax = 256 << 10

func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, drainMax))
	rc.Close()
}
