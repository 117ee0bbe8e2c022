package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"scoop/internal/objectstore"
	"scoop/internal/storlet"
)

// spanHeader carries "<request id>:<span id>" from the bench RoundTripper to
// the handler middleware — the one hop where a context cannot travel.
const spanHeader = "X-Bench-Span"

// spanRec is one recorded span. Times are nanoseconds since the tracer's
// epoch. For a stream (a GET body) the span runs from open to EOF or Close
// and Busy is the part of it spent inside calls into the layer; the rest is
// the caller's own time between reads. In and Out are the time a filter or
// handler spent blocked on its input and on its output.
type spanRec struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns,omitempty"`
	In     int64  `json:"in_ns,omitempty"`
	Out    int64  `json:"out_ns,omitempty"`
	Note   string `json:"note,omitempty"`
}

// tracer keeps spans in memory until the run ends. Only root spans consult
// on: every other seam records exactly when its context carries a span, so
// switching the tracer off between rounds leaves the seams in place as
// pass-throughs and the same bed measures traced and untraced rounds.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	next  atomic.Uint64

	mu    sync.Mutex
	spans []spanRec
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now is the tracer's clock: nanoseconds since its epoch.
func (t *tracer) now() int64 {
	//lint:ignore filterdet seam 7 wraps a deployed filter, so the proof sees this clock under a filter; it times the filter from outside and never reaches its output
	return int64(time.Since(t.epoch))
}

type spanKey struct{}

// spanRef identifies the enclosing span inside a context.
type spanRef struct{ id, req uint64 }

// span is a span in progress; a nil *span ignores every call.
type span struct {
	t   *tracer
	rec spanRec
	end sync.Once
}

// root starts a request's first span when tracing is on.
func (t *tracer) root(ctx context.Context, name string) (context.Context, *span) {
	if t == nil || !t.on.Load() {
		return ctx, nil
	}
	return t.child(ctx, spanRef{}, name)
}

// begin starts a span under the one ctx carries; without one it records
// nothing.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, *span) {
	if t == nil || ctx == nil {
		return ctx, nil
	}
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		return ctx, nil
	}
	return t.child(ctx, parent, name)
}

func (t *tracer) child(ctx context.Context, parent spanRef, name string) (context.Context, *span) {
	id := t.next.Add(1)
	req := parent.req
	if req == 0 {
		req = id
	}
	s := &span{t: t, rec: spanRec{ID: id, Parent: parent.id, Req: req, Name: name, Start: t.now()}}
	return context.WithValue(ctx, spanKey{}, spanRef{id: id, req: req}), s
}

// since adds the time elapsed from start to one of the span's accumulators.
func (s *span) since(acc *int64, start time.Time) {
	if s != nil {
		*acc += int64(time.Since(start))
	}
}

// finish closes the span once; later calls are ignored, so a stream may end
// it at EOF and again at Close.
func (s *span) finish() {
	if s == nil {
		return
	}
	s.end.Do(func() {
		s.rec.End = s.t.now()
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, s.rec)
		s.t.mu.Unlock()
	})
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// writeSpans writes the spans as one JSON array.
func writeSpans(path string, spans []spanRec) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedBody times the reads of a GET stream against its span and ends the
// span at EOF or Close, whichever comes first.
type tracedBody struct {
	rc io.ReadCloser
	sp *span
}

func (b *tracedBody) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := b.rc.Read(p)
	b.sp.since(&b.sp.rec.Busy, start)
	if err != nil {
		b.sp.finish()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	start := time.Now()
	err := b.rc.Close()
	b.sp.since(&b.sp.rec.Busy, start)
	b.sp.finish()
	return err
}

// CacheStatus keeps the result-cache verdict visible through the wrapper;
// the handler turns it into the X-Scoop-Cache header.
func (b *tracedBody) CacheStatus() string {
	if s, ok := b.rc.(objectstore.CacheStatuser); ok {
		return s.CacheStatus()
	}
	return ""
}

// tracedClient is the Client decorator of seams 2 and 5: layer "client" sits
// between the connector and the HTTP client, layer "proxy" between the HTTP
// handler and the cluster.
type tracedClient struct {
	objectstore.Client
	t     *tracer
	layer string
}

func (c *tracedClient) GetObject(ctx context.Context, account, container, object string, opts objectstore.GetOptions) (io.ReadCloser, objectstore.ObjectInfo, error) {
	ctx, sp := c.t.begin(ctx, c.layer+".get")
	if sp == nil {
		return c.Client.GetObject(ctx, account, container, object, opts)
	}
	start := time.Now()
	rc, info, err := c.Client.GetObject(ctx, account, container, object, opts)
	sp.since(&sp.rec.Busy, start)
	// In is the open latency: the part of Busy before the first byte.
	sp.rec.In = sp.rec.Busy
	if err != nil {
		sp.rec.Note = "error"
		sp.finish()
		return nil, info, err
	}
	body := &tracedBody{rc: rc, sp: sp}
	sp.rec.Note = body.CacheStatus()
	return body, info, nil
}

func (c *tracedClient) PutObject(ctx context.Context, account, container, object string, r io.Reader, meta map[string]string) (objectstore.ObjectInfo, error) {
	ctx, sp := c.t.begin(ctx, c.layer+".put")
	defer sp.finish()
	return c.Client.PutObject(ctx, account, container, object, r, meta)
}

func (c *tracedClient) HeadObject(ctx context.Context, account, container, object string) (objectstore.ObjectInfo, error) {
	ctx, sp := c.t.begin(ctx, c.layer+".head")
	defer sp.finish()
	return c.Client.HeadObject(ctx, account, container, object)
}

func (c *tracedClient) ListObjects(ctx context.Context, account, container, prefix string) ([]objectstore.ObjectInfo, error) {
	ctx, sp := c.t.begin(ctx, c.layer+".list")
	defer sp.finish()
	return c.Client.ListObjects(ctx, account, container, prefix)
}

// tracedTransport is seam 3: it spans one HTTP round trip from the request
// to the end of the response body and hands the span to the server.
type tracedTransport struct {
	next http.RoundTripper
	t    *tracer
}

func (tt *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ctx, sp := tt.t.begin(req.Context(), "link")
	if sp == nil {
		return tt.next.RoundTrip(req)
	}
	req = req.Clone(ctx)
	req.Header.Set(spanHeader, strconv.FormatUint(sp.rec.Req, 10)+":"+strconv.FormatUint(sp.rec.ID, 10))
	start := time.Now()
	resp, err := tt.next.RoundTrip(req)
	sp.since(&sp.rec.Busy, start)
	if err != nil {
		sp.rec.Note = "error"
		sp.finish()
		return nil, err
	}
	resp.Body = &tracedBody{rc: resp.Body, sp: sp}
	return resp, nil
}

// traceMiddleware is seam 4: it lifts the span header into the request
// context, which already flows through the proxy, the node, the store and
// storlet.Context.Ctx, and spans the handler.
func traceMiddleware(t *tracer, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID, spanID, ok := strings.Cut(r.Header.Get(spanHeader), ":")
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		var parent spanRef
		var err1, err2 error
		parent.req, err1 = strconv.ParseUint(reqID, 10, 64)
		parent.id, err2 = strconv.ParseUint(spanID, 10, 64)
		if err1 != nil || err2 != nil {
			next.ServeHTTP(w, r)
			return
		}
		ctx, sp := t.child(r.Context(), parent, "handler")
		sp.rec.Note = r.Method
		next.ServeHTTP(&tracedWriter{ResponseWriter: w, sp: sp}, r.WithContext(ctx))
		sp.finish()
	})
}

// tracedWriter times the handler's writes to the socket: the time the
// server spends blocked on a client that is not reading yet.
type tracedWriter struct {
	http.ResponseWriter
	sp *span
}

func (w *tracedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.ResponseWriter.Write(p)
	w.sp.since(&w.sp.rec.Out, start)
	return n, err
}

// tracedStore is seam 6, installed through ClusterConfig.StoreWrap. It also
// counts the bytes written to the stores, traced or not.
type tracedStore struct {
	objectstore.Store
	t       *tracer
	written *atomic.Int64
}

func (s *tracedStore) Get(ctx context.Context, path string, start, end int64) (io.ReadCloser, objectstore.ObjectInfo, error) {
	ctx, sp := s.t.begin(ctx, "store.get")
	if sp == nil {
		return s.Store.Get(ctx, path, start, end)
	}
	t0 := time.Now()
	rc, info, err := s.Store.Get(ctx, path, start, end)
	sp.since(&sp.rec.Busy, t0)
	if err != nil {
		sp.rec.Note = "error"
		sp.finish()
		return nil, info, err
	}
	return &tracedBody{rc: rc, sp: sp}, info, nil
}

func (s *tracedStore) Put(ctx context.Context, info objectstore.ObjectInfo, r io.Reader) (objectstore.ObjectInfo, error) {
	ctx, sp := s.t.begin(ctx, "store.put")
	defer sp.finish()
	stored, err := s.Store.Put(ctx, info, r)
	s.written.Add(stored.Size)
	return stored, err
}

// tracedFilter is seam 7: it takes a deployed filter's place under the same
// name and separates the filter's own time from the time it waits for the
// store (In) and for whoever reads its output (Out).
type tracedFilter struct {
	inner storlet.Filter
	t     *tracer
}

func (f *tracedFilter) Name() string { return f.inner.Name() }

func (f *tracedFilter) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	_, sp := f.t.begin(ctx.Ctx, "filter."+f.inner.Name())
	if sp == nil {
		return f.inner.Invoke(ctx, in, out)
	}
	defer sp.finish()
	return f.inner.Invoke(ctx, &timedReader{r: in, sp: sp}, &timedWriter{w: out, sp: sp})
}

type timedReader struct {
	r  io.Reader
	sp *span
}

func (r *timedReader) Read(p []byte) (int, error) {
	start := time.Now()
	n, err := r.r.Read(p)
	r.sp.since(&r.sp.rec.In, start)
	return n, err
}

type timedWriter struct {
	w  io.Writer
	sp *span
}

func (w *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := w.w.Write(p)
	w.sp.since(&w.sp.rec.Out, start)
	return n, err
}
