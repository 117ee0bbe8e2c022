package objectstore

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scoop/internal/metrics"
)

// TestIdempotentMethodMatrix is the verb matrix the retry loop gates on:
// RFC 9110 §9.2.2 idempotent verbs retry, the rest never do.
func TestIdempotentMethodMatrix(t *testing.T) {
	cases := []struct {
		method string
		want   bool
	}{
		{http.MethodGet, true},
		{http.MethodHead, true},
		{http.MethodPut, true},
		{http.MethodDelete, true},
		{http.MethodOptions, true},
		{http.MethodTrace, true},
		{http.MethodPost, false},
		{http.MethodPatch, false},
		{http.MethodConnect, false},
		{"BREW", false},
	}
	for _, c := range cases {
		if got := idempotentMethod(c.method); got != c.want {
			t.Errorf("idempotentMethod(%s) = %v, want %v", c.method, got, c.want)
		}
	}
}

func TestRetriableStatusMatrix(t *testing.T) {
	cases := []struct {
		code int
		want bool
	}{
		{200, false}, {201, false}, {204, false}, {206, false},
		{400, false}, {403, false}, {404, false}, {409, false}, {416, false},
		{408, true}, {429, true},
		{500, true}, {502, true}, {503, true}, {504, true}, {599, true},
	}
	for _, c := range cases {
		if got := retriable(&http.Response{StatusCode: c.code, Header: http.Header{}}); got != c.want {
			t.Errorf("retriable(%d) = %v, want %v", c.code, got, c.want)
		}
	}
}

// TestBackoffCapAndJitterDeterminism: the backoff ceiling grows
// exponentially from BaseDelay, never exceeds MaxDelay, and a fixed seed
// replays the exact same jittered delay sequence.
func TestBackoffCapAndJitterDeterminism(t *testing.T) {
	p := RetryPolicy{BaseDelay: 10 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 7}
	a, b := newJitter(7), newJitter(7)
	var seqA, seqB []time.Duration
	for retry := 0; retry < 12; retry++ {
		da, db := a.backoff(p, retry), b.backoff(p, retry)
		seqA, seqB = append(seqA, da), append(seqB, db)
		ceiling := 10 * time.Millisecond << retry
		if ceiling > 80*time.Millisecond {
			ceiling = 80 * time.Millisecond
		}
		if da < 0 || da >= ceiling {
			t.Errorf("retry %d: delay %v outside [0, %v)", retry, da, ceiling)
		}
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("same seed diverged at retry %d: %v vs %v", i, seqA[i], seqB[i])
		}
	}
	c := newJitter(8)
	diverged := false
	for retry := 0; retry < 12; retry++ {
		if c.backoff(p, retry) != seqA[retry] {
			diverged = true
		}
	}
	if !diverged {
		t.Error("different seeds produced identical jitter (suspicious)")
	}
}

// fastRetry is a policy that keeps tests quick.
func fastRetry() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 1}
}

func TestDoRetryRecoversFrom5xx(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) <= 2 {
			http.Error(w, "flaky", http.StatusServiceUnavailable)
			return
		}
		_, _ = io.WriteString(w, "fine")
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	c.Retry = fastRetry()
	c.Metrics = metrics.NewRegistry()
	resp, err := c.doRetry(context.Background(), http.MethodGet, true, func() (*http.Request, error) {
		return http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "fine" {
		t.Fatalf("body = %q", body)
	}
	if hits.Load() != 3 {
		t.Errorf("server saw %d requests, want 3", hits.Load())
	}
	if got := c.Metrics.Counter("client.retries").Load(); got != 2 {
		t.Errorf("client.retries = %d, want 2", got)
	}
}

func TestDoRetryGivesUpAfterMaxAttempts(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusBadGateway)
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	c.Retry = fastRetry()
	resp, err := c.doRetry(context.Background(), http.MethodGet, true, func() (*http.Request, error) {
		return http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
	})
	if err != nil {
		t.Fatalf("final attempt should return the response, got err %v", err)
	}
	drainClose(resp.Body)
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if hits.Load() != 4 {
		t.Errorf("server saw %d requests, want MaxAttempts=4", hits.Load())
	}
}

// TestDoRetryNonIdempotentSingleShot: POST and non-replayable bodies get
// exactly one attempt no matter how retriable the failure is.
func TestDoRetryNonIdempotentSingleShot(t *testing.T) {
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	c.Retry = fastRetry()
	for _, tc := range []struct {
		name       string
		method     string
		replayable bool
	}{
		{"post", http.MethodPost, true},
		{"non-replayable-put", http.MethodPut, false},
	} {
		hits.Store(0)
		resp, err := c.doRetry(context.Background(), tc.method, tc.replayable, func() (*http.Request, error) {
			return http.NewRequestWithContext(context.Background(), tc.method, srv.URL, nil)
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		drainClose(resp.Body)
		if hits.Load() != 1 {
			t.Errorf("%s: server saw %d requests, want 1", tc.name, hits.Load())
		}
	}
}

// TestDoRetryCtxCancelDuringBackoff: a context cancelled while the retry
// loop sleeps aborts the whole operation immediately.
func TestDoRetryCtxCancelDuringBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var hits atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		cancel() // die while the client backs off before its retry
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := NewHTTPClient(srv.URL)
	c.Retry = RetryPolicy{MaxAttempts: 4, BaseDelay: time.Hour, MaxDelay: time.Hour, Seed: 1}
	start := time.Now()
	_, err := c.doRetry(ctx, http.MethodGet, true, func() (*http.Request, error) {
		return http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	})
	if err == nil {
		t.Fatal("want error after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want wrapped context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("retry loop held the dead request for %v", elapsed)
	}
	if hits.Load() != 1 {
		t.Errorf("server saw %d requests after cancel, want 1", hits.Load())
	}
}

// TestPutObjectRetrySeekableBody: a seekable body is rewound and replayed;
// a one-shot stream is not retried.
func TestPutObjectRetrySeekableBody(t *testing.T) {
	_, client := newHTTPStore(t)
	if err := client.CreateContainer(context.Background(), "gp", "c", nil); err != nil {
		t.Fatal(err)
	}
	// Flaky front: the first PUT attempt 503s, the second reaches the store.
	var puts atomic.Int64
	inner := client.HTTP
	if inner == nil {
		inner = http.DefaultClient
	}
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.Count(r.URL.Path, "/") == 4 && puts.Add(1) == 1 {
			_, _ = io.Copy(io.Discard, r.Body)
			http.Error(w, "backend blip", http.StatusServiceUnavailable)
			return
		}
		proxyTo(w, r, client.BaseURL, inner)
	}))
	defer flaky.Close()
	front := NewHTTPClient(flaky.URL)
	front.Retry = fastRetry()
	info, err := front.PutObject(context.Background(), "gp", "c", "obj",
		strings.NewReader("payload survives the retry"), nil)
	if err != nil {
		t.Fatalf("seekable PUT did not survive a 503: %v", err)
	}
	if info.Size != int64(len("payload survives the retry")) {
		t.Errorf("stored size = %d", info.Size)
	}
	rc, _, err := front.GetObject(context.Background(), "gp", "c", "obj", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(rc)
	rc.Close()
	if string(data) != "payload survives the retry" {
		t.Errorf("round-trip = %q", data)
	}

	// One-shot stream: same blip, no retry, error surfaces.
	puts.Store(0)
	oneShot := io.LimitReader(strings.NewReader("not replayable"), 1<<20)
	if _, err := front.PutObject(context.Background(), "gp", "c", "obj2", oneShot, nil); err == nil {
		t.Fatal("non-replayable PUT should fail rather than silently retry a consumed body")
	}
}

// proxyTo forwards a request to the real store endpoint (a minimal reverse
// proxy that keeps the test's flaky layer out of the store itself).
func proxyTo(w http.ResponseWriter, r *http.Request, baseURL string, client *http.Client) {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, baseURL+r.URL.RequestURI(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := client.Do(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer drainClose(resp.Body)
	for k, vs := range resp.Header {
		w.Header()[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// cutServer serves payload as version v1 and cuts the first plain GET's
// body after 1000 bytes; ranged re-reads are answered by ranged.
func cutServer(t *testing.T, payload string, ranged func(w http.ResponseWriter, start, end int64)) *httptest.Server {
	t.Helper()
	var cut atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rng := r.Header.Get("Range"); rng != "" {
			start, end, err := parseRange(rng)
			if err != nil || end > int64(len(payload)) || end == 0 {
				http.Error(w, "bad range", http.StatusRequestedRangeNotSatisfiable)
				return
			}
			ranged(w, start, end)
			return
		}
		w.Header().Set("ETag", "v1")
		w.Header().Set("Content-Length", fmt.Sprint(len(payload)))
		if !cut.Swap(true) {
			_, _ = io.WriteString(w, payload[:1000])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}
		_, _ = io.WriteString(w, payload)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// serveRange answers a ranged read with body[start:end] as version etag.
func serveRange(w http.ResponseWriter, etag, body string, start, end int64) {
	w.Header().Set("ETag", etag)
	w.Header().Set("Content-Length", fmt.Sprint(end-start))
	w.WriteHeader(http.StatusPartialContent)
	_, _ = io.WriteString(w, body[start:end])
}

// TestGetObjectResumesTruncatedBody: a body cut mid-stream is resumed with
// a ranged re-read and the caller sees the complete, byte-identical object.
func TestGetObjectResumesTruncatedBody(t *testing.T) {
	payload := strings.Repeat("0123456789", 400) // 4000 bytes
	srv := cutServer(t, payload, func(w http.ResponseWriter, start, end int64) {
		serveRange(w, "v1", payload, start, end)
	})
	c := NewHTTPClient(srv.URL)
	c.Retry = fastRetry()
	c.Metrics = metrics.NewRegistry()
	rc, info, err := c.GetObject(context.Background(), "gp", "c", "obj", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	data, rerr := io.ReadAll(rc)
	rc.Close()
	if rerr != nil {
		t.Fatalf("read after mid-stream cut: %v", rerr)
	}
	if string(data) != payload {
		t.Fatalf("resumed body diverged: %d bytes, want %d", len(data), len(payload))
	}
	if info.Size != int64(len(payload)) {
		t.Errorf("info.Size = %d", info.Size)
	}
	if got := c.Metrics.Counter("client.resumes").Load(); got < 1 {
		t.Errorf("client.resumes = %d, want >= 1", got)
	}
}

// readCut GETs srv's object under fastRetry and reads it to the end.
func readCut(t *testing.T, srv *httptest.Server) (string, *metrics.Registry, error) {
	t.Helper()
	c := NewHTTPClient(srv.URL)
	c.Retry = fastRetry()
	c.Metrics = metrics.NewRegistry()
	rc, _, err := c.GetObject(context.Background(), "gp", "c", "obj", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	return string(data), c.Metrics, err
}

// A resume that meets another version gives up rather than splice it on.
func TestResumeRefusesAnotherVersion(t *testing.T) {
	payload := strings.Repeat("0123456789", 400)
	srv := cutServer(t, payload, func(w http.ResponseWriter, start, end int64) {
		serveRange(w, "v2", strings.Repeat("abcdefghij", 400), start, end)
	})
	data, _, err := readCut(t, srv)
	if !errors.Is(err, ErrTruncated) || !strings.Contains(err.Error(), "object changed mid-read") {
		t.Fatalf("err = %v, want ErrTruncated for a changed object", err)
	}
	if len(data) > 1000 || !strings.HasPrefix(payload, data) {
		t.Errorf("delivered %d bytes that are not a prefix of the first version", len(data))
	}
}

// A resume is a ranged request through the one attempt loop: a 503 on it
// is one retry of one resume.
func TestResumeRetriesThroughTheAttemptLoop(t *testing.T) {
	payload := strings.Repeat("0123456789", 400)
	var ranged atomic.Int64
	srv := cutServer(t, payload, func(w http.ResponseWriter, start, end int64) {
		if ranged.Add(1) == 1 {
			http.Error(w, "blip", http.StatusServiceUnavailable)
			return
		}
		serveRange(w, "v1", payload, start, end)
	})
	data, m, err := readCut(t, srv)
	if err != nil || data != payload {
		t.Fatalf("read %d bytes, err %v; want the whole %d-byte body", len(data), err, len(payload))
	}
	if r, n := m.Counter("client.resumes").Load(), m.Counter("client.retries").Load(); r != 1 || n != 1 {
		t.Errorf("client.resumes = %d, client.retries = %d, want 1 and 1", r, n)
	}
}

// A resume whose every attempt fails gives up after MaxAttempts requests,
// with an error that wraps ErrTruncated.
func TestResumeGivesUpTruncated(t *testing.T) {
	payload := strings.Repeat("0123456789", 400)
	var ranged atomic.Int64
	srv := cutServer(t, payload, func(w http.ResponseWriter, _, _ int64) {
		ranged.Add(1)
		http.Error(w, "down", http.StatusInternalServerError)
	})
	_, _, err := readCut(t, srv)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if want := int64(fastRetry().MaxAttempts); ranged.Load() != want {
		t.Errorf("ranged requests = %d, want MaxAttempts = %d", ranged.Load(), want)
	}
}

// slowInfiniteBody never ends and counts what is read from it — the
// regression body for the drainClose bound.
type slowInfiniteBody struct {
	read   int64
	closed bool
}

func (b *slowInfiniteBody) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	b.read += int64(len(p))
	return len(p), nil
}

func (b *slowInfiniteBody) Close() error {
	b.closed = true
	return nil
}

// TestDrainCloseBounded: draining a failed response must be bounded — a
// huge (or never-ending) body is abandoned after drainMax instead of
// stalling the caller to preserve one keep-alive connection.
func TestDrainCloseBounded(t *testing.T) {
	body := &slowInfiniteBody{}
	done := make(chan struct{})
	go func() {
		drainClose(body)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("drainClose did not return on an unbounded body")
	}
	if !body.closed {
		t.Error("drainClose did not close the body")
	}
	// io.Copy reads in chunks; allow one chunk of slack over the bound.
	if body.read > drainMax+64<<10 {
		t.Errorf("drainClose read %d bytes, bound is %d", body.read, drainMax)
	}
}
