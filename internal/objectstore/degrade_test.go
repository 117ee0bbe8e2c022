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
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

func TestPushdownUnavailableReasonTokens(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{fmt.Errorf("%w: %q", storlet.ErrNotDeployed, "ghost"), "not-deployed"},
		{&storlet.FilterError{Filter: "f", Err: storlet.ErrBreakerOpen}, "breaker-open"},
		{&storlet.FilterError{Filter: "f", Err: storlet.ErrOverloaded}, "overloaded"},
		{fmt.Errorf("%w: container a/c", ErrPushdownDisabled), "disabled"},
		{&storlet.FilterError{Filter: "f", Err: errors.New("boom")}, "filter-failed"},
		{ErrPushdownUnavailable, "unavailable"},
	}
	for _, c := range cases {
		if got := PushdownUnavailableReason(c.err); got != c.want {
			t.Errorf("reason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
	// Round-trip: the wire reason decodes back to the typed sentinel.
	err := pushdownUnavailableErr("breaker-open", 503, "refused")
	if !errors.Is(err, ErrPushdownUnavailable) || !IsPushdownUnavailable(err) {
		t.Errorf("decoded error lost its type: %v", err)
	}
}

// A pushdown request naming a filter the store never deployed must be
// refused pre-first-byte: 503, Retry-After, and the machine-readable reason
// header — the shape PR 3's retries and the connector's fallback key on.
func TestHTTPPushdownNotDeployed503(t *testing.T) {
	_, cl := newHTTPStore(t)
	cl.Retry = RetryPolicy{Disabled: true} // a 503 is retriable; keep the test fast
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	if _, err := cl.PutObject(context.Background(), "gp", "meters", "jan.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	task := &pushdown.Task{Filter: "ghost"}
	enc, err := pushdown.EncodeChain([]*pushdown.Task{task})
	if err != nil {
		t.Fatal(err)
	}

	// Wire level: status, reason header, Retry-After, all before any body.
	req, _ := http.NewRequest(http.MethodGet, cl.BaseURL+"/v1/gp/meters/jan.csv", nil)
	req.Header.Set(pushdown.HeaderName, enc)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get(HeaderPushdownUnavailable); got != "not-deployed" {
		t.Errorf("%s = %q, want not-deployed", HeaderPushdownUnavailable, got)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}

	// Client level: the refusal decodes to the typed sentinel.
	_, _, err = cl.GetObject(context.Background(), "gp", "meters", "jan.csv",
		GetOptions{Pushdown: []*pushdown.Task{task}})
	if !errors.Is(err, ErrPushdownUnavailable) || !IsPushdownUnavailable(err) {
		t.Fatalf("client error = %v, want ErrPushdownUnavailable", err)
	}
	if !strings.Contains(err.Error(), "not-deployed") {
		t.Errorf("reason lost: %v", err)
	}
}

func TestHTTPPushdownDisabledByPolicy503(t *testing.T) {
	_, cl := newHTTPStore(t)
	cl.Retry = RetryPolicy{Disabled: true}
	policy := &ContainerPolicy{DisablePushdown: true}
	if err := cl.CreateContainer(context.Background(), "gp", "locked", policy); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PutObject(context.Background(), "gp", "locked", "o.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.GetObject(context.Background(), "gp", "locked", "o.csv",
		GetOptions{Pushdown: []*pushdown.Task{{Filter: "anything"}}})
	if !IsPushdownUnavailable(err) {
		t.Fatalf("disabled pushdown error = %v", err)
	}
	if !strings.Contains(err.Error(), "disabled") {
		t.Errorf("reason token missing: %v", err)
	}
	// A plain GET against the same container still works.
	rc, _, err := cl.GetObject(context.Background(), "gp", "locked", "o.csv", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if readAll(t, rc) != meterCSV {
		t.Error("plain GET degraded")
	}
}

// A filter that dies after producing output cannot change the status line:
// the failure must travel in the HeaderFilterError trailer, and the client
// must surface it as a typed ErrFilterFailed after the delivered bytes.
func TestHTTPTrailerMidStreamFilterFailure(t *testing.T) {
	cluster, cl := newHTTPStore(t)
	const partial = "vid,city\nV1,Rotterdam\n"
	brittle := storlet.FilterFunc{FilterName: "brittle", Fn: func(_ *storlet.Context, _ io.Reader, out io.Writer) error {
		if _, err := io.WriteString(out, partial); err != nil {
			return err
		}
		return fmt.Errorf("disk melted under the filter")
	}}
	if err := cluster.Engine().Register(brittle); err != nil {
		t.Fatal(err)
	}
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	if _, err := cl.PutObject(context.Background(), "gp", "meters", "jan.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv",
		GetOptions{Pushdown: []*pushdown.Task{{Filter: "brittle"}}})
	if err != nil {
		t.Fatalf("the stream opened fine (failure is mid-flight): %v", err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if string(b) != partial {
		t.Errorf("delivered bytes = %q, want %q", b, partial)
	}
	if !errors.Is(err, ErrFilterFailed) || !IsFilterFailure(err) {
		t.Fatalf("trailer error = %v, want ErrFilterFailed", err)
	}
	if !strings.Contains(err.Error(), "disk melted") {
		t.Errorf("cause lost in trailer round-trip: %v", err)
	}
}

// The trailer stays empty on clean completion, so a successful pushdown
// stream reads to plain io.EOF.
func TestHTTPTrailerCleanOnSuccess(t *testing.T) {
	cluster, cl := newHTTPStore(t)
	ok := storlet.FilterFunc{FilterName: "ident", Fn: func(_ *storlet.Context, in io.Reader, out io.Writer) error {
		_, err := io.Copy(out, in)
		return err
	}}
	if err := cluster.Engine().Register(ok); err != nil {
		t.Fatal(err)
	}
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	if _, err := cl.PutObject(context.Background(), "gp", "meters", "jan.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	rc, _, err := cl.GetObject(context.Background(), "gp", "meters", "jan.csv",
		GetOptions{Pushdown: []*pushdown.Task{{Filter: "ident"}}})
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, rc); got != meterCSV {
		t.Errorf("filtered stream = %q", got)
	}
}

func TestRetryAfterHintParsing(t *testing.T) {
	mk := func(v string) *http.Response {
		h := http.Header{}
		if v != "" {
			h.Set("Retry-After", v)
		}
		return &http.Response{Header: h}
	}
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"2", 2 * time.Second},
		{"0", 0},
		{"-3", 0},
		{"bogus", 0},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0}, // HTTP-date form is ignored
	}
	for _, c := range cases {
		if got := retryAfterHint(mk(c.in)); got != c.want {
			t.Errorf("retryAfterHint(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// A server-requested Retry-After paces the retry but is capped at the
// policy's MaxDelay, so a confused server cannot park the client.
func TestRetryAfterPacingCapped(t *testing.T) {
	var calls int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			w.Header().Set("Retry-After", "30") // way past MaxDelay
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Length", "2")
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok")
	}))
	defer srv.Close()
	cl := NewHTTPClient(srv.URL)
	cl.Retry = RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 20 * time.Millisecond, Seed: 1}
	start := time.Now()
	rc, _, err := cl.GetObject(context.Background(), "a", "c", "o", GetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := readAll(t, rc); got != "ok" {
		t.Errorf("body = %q", got)
	}
	if calls != 2 {
		t.Errorf("calls = %d, want 2", calls)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("Retry-After was not capped: took %v", elapsed)
	}
}

// A pushdown refused as not-deployed or disabled is final: under the default
// retry policy the client answers at once, without a retry, and the
// connector falls back.
func TestPermanentPushdownRefusalNotRetried(t *testing.T) {
	_, cl := newHTTPStore(t)
	cl.Metrics = metrics.NewRegistry()
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	if err := cl.CreateContainer(ctx, "gp", "locked", &ContainerPolicy{DisablePushdown: true}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ container, filter, reason string }{
		{"meters", "ghost", "not-deployed"},
		{"locked", "csv", "disabled"},
	} {
		if _, err := cl.PutObject(ctx, "gp", c.container, "o.csv", strings.NewReader(meterCSV), nil); err != nil {
			t.Fatal(err)
		}
		before := cl.Metrics.Counter("client.retries").Load()
		start := time.Now()
		_, _, err := cl.GetObject(ctx, "gp", c.container, "o.csv",
			GetOptions{Pushdown: []*pushdown.Task{{Filter: c.filter}}})
		took := time.Since(start)
		if !IsPushdownUnavailable(err) || !strings.Contains(err.Error(), c.reason) {
			t.Fatalf("%s: err = %v, want a %s refusal", c.reason, err, c.reason)
		}
		if n := cl.Metrics.Counter("client.retries").Load() - before; n != 0 || took > 500*time.Millisecond {
			t.Errorf("%s: %d retries in %v, want none", c.reason, n, took)
		}
	}
}

// The refusals a later attempt may not meet stay retriable.
func TestTransientPushdownRefusalRetried(t *testing.T) {
	for _, reason := range []string{"overloaded", "breaker-open", "filter-failed"} {
		var hits atomic.Int64
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			hits.Add(1)
			w.Header().Set(HeaderPushdownUnavailable, reason)
			http.Error(w, reason, http.StatusServiceUnavailable)
		}))
		c := NewHTTPClient(srv.URL)
		c.Retry = fastRetry()
		resp, err := c.doRetry(context.Background(), http.MethodGet, true, func() (*http.Request, error) {
			return http.NewRequestWithContext(context.Background(), http.MethodGet, srv.URL, nil)
		})
		if err == nil {
			resp.Body.Close()
		}
		srv.Close()
		if want := int64(c.Retry.withDefaults().MaxAttempts); hits.Load() != want {
			t.Errorf("%s: server saw %d requests, want %d", reason, hits.Load(), want)
		}
	}
}
