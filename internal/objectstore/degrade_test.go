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
		{fmt.Errorf("%w: container a/c", storlet.ErrPushdownDisabled), "disabled"},
		{&storlet.FilterError{Filter: "f", Err: errors.New("boom")}, "filter-failed"},
		{storlet.ErrUnavailable, "unavailable"},
	}
	for _, c := range cases {
		if got := storlet.Classify(c.err).Reason; got != c.want {
			t.Errorf("reason(%v) = %q, want %q", c.err, got, c.want)
		}
	}
	// Round-trip: the wire reason decodes back to the typed sentinel.
	rec := httptest.NewRecorder()
	writeErr(rec, &storlet.FilterError{Filter: "f", Err: storlet.ErrBreakerOpen})
	err := statusErr(rec.Result())
	if !errors.Is(err, storlet.ErrBreakerOpen) || storlet.Classify(err).Reason != "breaker-open" {
		t.Errorf("decoded error lost its class: %v", err)
	}
}

// A pushdown request naming a filter the store never deployed must be
// refused pre-first-byte: 503 and the machine-readable reason header, the
// shape the client's retries and the query's fallback key on.
func TestHTTPPushdownNotDeployed503(t *testing.T) {
	_, cl := newHTTPStore(t)
	cl.Retry = RetryPolicy{MaxAttempts: 1} // a 503 is retriable; keep the test fast
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	if _, err := cl.PutObject(context.Background(), "gp", "meters", "jan.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	task := &pushdown.Task{Filter: "ghost"}
	enc, err := pushdown.EncodeChain([]*pushdown.Task{task})
	if err != nil {
		t.Fatal(err)
	}

	// Wire level: status and reason header, before any body.
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

	// Client level: the refusal decodes to the typed sentinel.
	_, _, err = cl.GetObject(context.Background(), "gp", "meters", "jan.csv",
		GetOptions{Pushdown: []*pushdown.Task{task}})
	if !errors.Is(err, storlet.ErrNotDeployed) {
		t.Fatalf("client error = %v, want storlet.ErrNotDeployed", err)
	}
	if !strings.Contains(err.Error(), "not-deployed") {
		t.Errorf("reason lost: %v", err)
	}
}

func TestHTTPPushdownDisabledByPolicy503(t *testing.T) {
	_, cl := newHTTPStore(t)
	cl.Retry = RetryPolicy{MaxAttempts: 1}
	policy := &ContainerPolicy{DisablePushdown: true}
	if err := cl.CreateContainer(context.Background(), "gp", "locked", policy); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.PutObject(context.Background(), "gp", "locked", "o.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	_, _, err := cl.GetObject(context.Background(), "gp", "locked", "o.csv",
		GetOptions{Pushdown: []*pushdown.Task{{Filter: "anything"}}})
	if !errors.Is(err, storlet.ErrPushdownDisabled) {
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
// must surface it as a typed storlet.ErrFilterFailed after the delivered bytes.
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
	if !errors.Is(err, storlet.ErrFilterFailed) {
		t.Fatalf("trailer error = %v, want storlet.ErrFilterFailed", err)
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

// A pushdown refused as not-deployed or disabled, or whose filter failed,
// is final: under the default retry policy the client answers at once,
// without a retry, and the query falls back. A failed filter is invoked
// once, so it counts once against its breaker.
func TestPermanentPushdownRefusalNotRetried(t *testing.T) {
	cluster, cl := newHTTPStore(t)
	cl.Metrics = metrics.NewRegistry()
	bug := storlet.FilterFunc{FilterName: "bug", Fn: func(*storlet.Context, io.Reader, io.Writer) error {
		return errors.New("bug")
	}}
	if err := cluster.Engine().Register(bug); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	if err := cl.CreateContainer(ctx, "gp", "locked", &ContainerPolicy{DisablePushdown: true}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ container, filter, reason string }{
		{"meters", "ghost", "not-deployed"},
		{"locked", "csv", "disabled"},
		{"meters", "bug", "filter-failed"},
	} {
		if _, err := cl.PutObject(ctx, "gp", c.container, "o.csv", strings.NewReader(meterCSV), nil); err != nil {
			t.Fatal(err)
		}
		before := cl.Metrics.Counter("client.retries").Load()
		start := time.Now()
		_, _, err := cl.GetObject(ctx, "gp", c.container, "o.csv",
			GetOptions{Pushdown: []*pushdown.Task{{Filter: c.filter}}})
		took := time.Since(start)
		if storlet.Classify(err).Reason != c.reason || !strings.Contains(err.Error(), c.reason) {
			t.Fatalf("%s: err = %v, want a %s refusal", c.reason, err, c.reason)
		}
		if n := cl.Metrics.Counter("client.retries").Load() - before; n != 0 || took > 500*time.Millisecond {
			t.Errorf("%s: %d retries in %v, want none", c.reason, n, took)
		}
	}
	if n := cluster.Engine().StatsFor("bug").Errors; n != 1 {
		t.Errorf("bug Errors = %d, want 1 (one invocation per GET)", n)
	}
}

// A filter that fails before its first byte is answered on the wire as a
// 503 with the filter-failed token and no Retry-After.
func TestFilterFailureRetriesAreNotPaced(t *testing.T) {
	cluster, cl := newHTTPStore(t)
	bug := storlet.FilterFunc{FilterName: "bug", Fn: func(*storlet.Context, io.Reader, io.Writer) error {
		return errors.New("bug")
	}}
	if err := cluster.Engine().Register(bug); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	if _, err := cl.PutObject(ctx, "gp", "meters", "jan.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	enc, err := pushdown.EncodeChain([]*pushdown.Task{{Filter: "bug"}})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := http.NewRequest(http.MethodGet, cl.BaseURL+"/v1/gp/meters/jan.csv", nil)
	req.Header.Set(pushdown.HeaderName, enc)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(HeaderPushdownUnavailable) != "filter-failed" {
		t.Errorf("wire: %d %s=%q, want 503 filter-failed", resp.StatusCode,
			HeaderPushdownUnavailable, resp.Header.Get(HeaderPushdownUnavailable))
	}
	if v, ok := resp.Header["Retry-After"]; ok {
		t.Errorf("503 carries Retry-After %q", v)
	}
}

// The refusals a later attempt may not meet stay retriable.
func TestTransientPushdownRefusalRetried(t *testing.T) {
	for _, reason := range []string{"overloaded", "breaker-open"} {
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

// A task the filter's checks refuse is a bad task: 400 with reason
// bad-task, at once, with no retry, and no error on the filter's breaker.
func TestBadTaskIs400NotRetried(t *testing.T) {
	cluster, cl := newHTTPStore(t)
	cl.Metrics = metrics.NewRegistry()
	ctx := context.Background()
	_ = cl.CreateContainer(ctx, "gp", "meters", nil)
	if _, err := cl.PutObject(ctx, "gp", "meters", "o.csv", strings.NewReader(meterCSV), nil); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err := cl.GetObject(ctx, "gp", "meters", "o.csv", GetOptions{Pushdown: []*pushdown.Task{
		{Filter: "csv", Schema: meterSchema, Columns: []string{"nosuch"}},
	}})
	took := time.Since(start)
	if !errors.Is(err, storlet.ErrBadTask) || !strings.Contains(err.Error(), "http 400") {
		t.Errorf("err = %v, want a bad-task 400", err)
	}
	if n := cl.Metrics.Counter("client.retries").Load(); n != 0 || took > 500*time.Millisecond {
		t.Errorf("%d retries in %v, want none", n, took)
	}
	if n := cluster.Engine().StatsFor("csv").Errors; n != 0 {
		t.Errorf("csv Errors = %d, want 0", n)
	}
}
