// Package storlet is the active storage layer of Scoop: a framework for
// deploying and executing *pushdown filters* inside the object store,
// modelled on OpenStack Storlets (paper §V). A filter is a piece of logic
// invoked on the data stream of a single object request; the store itself is
// oblivious to what the filter computes.
//
// Where the original Storlets run Java code inside Docker containers, this
// implementation sandboxes Go filters behind goroutine isolation: panics are
// converted to request errors, invocations are bounded by a deadline and an
// output cap, and per-filter resource usage (bytes in/out, CPU-ish wall
// time) is accounted — the properties the paper's evaluation measures.
//
// The engine is also the first rung of the degradation ladder (DESIGN §8):
// when the store cannot run a filter — saturated, persistently failing,
// not deployed — it says so *before* producing any bytes, with a typed
// error the HTTP layer turns into a retriable 503 and the connector turns
// into a compute-side fallback.
package storlet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"scoop/internal/pushdown"
)

// Context carries per-invocation information to a filter.
type Context struct {
	// Ctx is the request context. The engine uses it to abort slot-queue
	// waits when the caller gives up; filters may use it to abort long
	// stalls. A nil Ctx means "never cancelled".
	Ctx context.Context
	// Task is the pushdown task extracted from the request metadata.
	Task *pushdown.Task
	// RangeStart and RangeEnd are the absolute byte range of the request
	// within the object ([0, ObjectSize) for a full-object request). Filters
	// over record-structured data use these for split alignment.
	RangeStart, RangeEnd int64
	// ObjectSize is the total size of the stored object.
	ObjectSize int64
	// Log records diagnostic lines (the StorletLogger analog).
	Log func(format string, args ...any)
}

// Logf logs through ctx.Log when set.
func (c *Context) Logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// Filter is the storlet interface (the paper's IStorlet.invoke): transform
// the inbound object stream into the outbound response stream.
type Filter interface {
	// Name is the identifier pushdown tasks reference.
	Name() string
	// Invoke streams in through the filter into out. It must not retain
	// either stream after returning.
	Invoke(ctx *Context, in io.Reader, out io.Writer) error
}

// FilterFunc adapts a function to the Filter interface.
type FilterFunc struct {
	FilterName string
	Fn         func(ctx *Context, in io.Reader, out io.Writer) error
}

// Name implements Filter.
func (f FilterFunc) Name() string { return f.FilterName }

// Invoke implements Filter.
func (f FilterFunc) Invoke(ctx *Context, in io.Reader, out io.Writer) error {
	return f.Fn(ctx, in, out)
}

// Stats aggregates resource accounting for one filter.
type Stats struct {
	Invocations int64
	Errors      int64
	BytesIn     int64
	BytesOut    int64
	WallTime    time.Duration
	// Rejections counts invocations refused before a sandbox goroutine was
	// spawned: breaker-open refusals and admission-control overload.
	Rejections int64
	// BreakerOpens counts closed→open transitions of this filter's circuit
	// breaker.
	BreakerOpens int64
}

// Limits bound a single filter invocation.
type Limits struct {
	// Timeout aborts an invocation that runs longer (0 = no limit).
	Timeout time.Duration
	// MaxOutputBytes aborts an invocation producing more output (0 = none).
	MaxOutputBytes int64
	// MaxConcurrent bounds simultaneously executing filtered REQUESTS
	// (0 = unlimited) — the CPU/parallelism constraint at the object store
	// the paper's §VII discusses; excess requests queue. A pipelined chain
	// counts as one request.
	MaxConcurrent int
	// MaxQueue bounds how many requests may wait for a slot when all
	// MaxConcurrent slots are busy. 0 keeps the historical behavior
	// (unbounded wait, still abortable via Context.Ctx / QueueWait);
	// a negative value rejects immediately when saturated; a positive
	// value admits at most that many waiters and sheds the rest with
	// ErrOverloaded.
	MaxQueue int
	// QueueWait bounds how long a request may wait for a slot before being
	// shed with ErrOverloaded (0 = wait until the request context is
	// cancelled).
	QueueWait time.Duration
	// Breaker configures the per-filter circuit breaker. The zero value
	// (Threshold 0) disables it.
	Breaker BreakerPolicy
}

// Engine is the filter registry and sandboxed execution environment — the
// piece that makes the object store "rich and extensible" (paper §I): new
// filters can be deployed at runtime without touching the store.
type Engine struct {
	mu       sync.RWMutex
	filters  map[string]Filter
	stats    map[string]*Stats
	breakers map[string]*breaker
	limits   Limits
	// slots is the concurrency semaphore when MaxConcurrent > 0.
	slots chan struct{}
	// waiting counts requests queued for a slot (bounded by MaxQueue > 0).
	waiting atomic.Int64
}

// NewEngine returns an engine with the given limits.
func NewEngine(limits Limits) *Engine {
	e := &Engine{
		filters:  make(map[string]Filter),
		stats:    make(map[string]*Stats),
		breakers: make(map[string]*breaker),
		limits:   limits,
	}
	if limits.MaxConcurrent > 0 {
		e.slots = make(chan struct{}, limits.MaxConcurrent)
	}
	return e
}

// ErrAlreadyDeployed is returned when registering a filter whose name is
// taken; redeployment flows treat it as success.
var ErrAlreadyDeployed = errors.New("storlet: filter already deployed")

// Register deploys a filter, making it invocable by name. Deploying is the
// "on-the-fly" extension path: it can happen while the store serves traffic.
func (e *Engine) Register(f Filter) error {
	if f == nil || f.Name() == "" {
		return errors.New("storlet: filter needs a name")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.filters[f.Name()]; dup {
		return fmt.Errorf("%w: %q", ErrAlreadyDeployed, f.Name())
	}
	e.filters[f.Name()] = f
	e.stats[f.Name()] = &Stats{}
	return nil
}

// Unregister removes a deployed filter.
func (e *Engine) Unregister(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.filters[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotDeployed, name)
	}
	delete(e.filters, name)
	return nil
}

// Get looks up a deployed filter.
func (e *Engine) Get(name string) (Filter, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	f, ok := e.filters[name]
	return f, ok
}

// Names returns the deployed filter names, sorted.
func (e *Engine) Names() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.filters))
	for n := range e.filters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// StatsFor returns a copy of the accounting for one filter.
func (e *Engine) StatsFor(name string) Stats {
	e.mu.RLock()
	s, ok := e.stats[name]
	br := e.breakers[name]
	var out Stats
	if ok {
		out = *s
	}
	e.mu.RUnlock()
	if br != nil {
		out.BreakerOpens = br.openCount()
	}
	return out
}

// BreakerState reports the circuit-breaker state for a filter: "closed",
// "open", or "half-open". A filter without a breaker (policy disabled or
// never invoked) reports "closed".
func (e *Engine) BreakerState(name string) string {
	e.mu.RLock()
	br := e.breakers[name]
	e.mu.RUnlock()
	if br == nil {
		return "closed"
	}
	return br.stateName()
}

// breakerFor returns the filter's breaker, creating it on first use, or nil
// when the policy is disabled.
func (e *Engine) breakerFor(name string) *breaker {
	if e.limits.Breaker.Threshold <= 0 {
		return nil
	}
	e.mu.RLock()
	br := e.breakers[name]
	e.mu.RUnlock()
	if br != nil {
		return br
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if br = e.breakers[name]; br == nil {
		br = newBreaker(name, e.limits.Breaker)
		e.breakers[name] = br
	}
	return br
}

// countRejection accounts an invocation refused before sandboxing.
func (e *Engine) countRejection(name string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.stats[name]
	if !ok {
		s = &Stats{}
		e.stats[name] = s
	}
	s.Rejections++
}

// acquire claims a concurrency slot, queueing within the admission-control
// bounds. It returns ErrOverloaded when the wait queue is full or QueueWait
// elapses, and the context error when rctx is cancelled while queued. It
// runs on the REQUESTER's goroutine — a shed request never spawns a sandbox
// goroutine, which is both the load-shedding point and the fix for the old
// leak where a sandbox goroutine parked on `e.slots <-` forever after its
// caller walked away.
func (e *Engine) acquire(rctx context.Context) error {
	select {
	case e.slots <- struct{}{}:
		return nil
	default:
	}
	// Saturated: join the wait queue if admission control allows.
	if e.limits.MaxQueue < 0 {
		return fmt.Errorf("%w: %d slots busy", ErrOverloaded, e.limits.MaxConcurrent)
	}
	if e.limits.MaxQueue > 0 {
		for {
			w := e.waiting.Load()
			if w >= int64(e.limits.MaxQueue) {
				return fmt.Errorf("%w: %d slots busy, %d queued", ErrOverloaded, e.limits.MaxConcurrent, w)
			}
			if e.waiting.CompareAndSwap(w, w+1) {
				break
			}
		}
		defer e.waiting.Add(-1)
	}
	var done <-chan struct{}
	if rctx != nil {
		done = rctx.Done()
	}
	var deadline <-chan time.Time
	if e.limits.QueueWait > 0 {
		timer := time.NewTimer(e.limits.QueueWait)
		defer timer.Stop()
		deadline = timer.C
	}
	select {
	case e.slots <- struct{}{}:
		return nil
	case <-done:
		return fmt.Errorf("storlet: slot wait aborted: %w", rctx.Err())
	case <-deadline:
		return fmt.Errorf("%w: no slot within %v", ErrOverloaded, e.limits.QueueWait)
	}
}

// Run executes the task's filter over in, returning the filtered stream.
// The filter runs in its own goroutine (the sandbox); a panic, timeout or
// output overrun surfaces as a *FilterError from the returned reader. The
// caller must drain and close the returned reader. Admission failures —
// ErrOverloaded, ErrBreakerOpen, ErrNotDeployed — are returned up-front,
// before any byte is produced.
func (e *Engine) Run(ctx *Context, in io.Reader) (io.ReadCloser, error) {
	return e.run(ctx, in, true)
}

// run optionally skips slot acquisition: a pipelined chain counts as ONE
// request against MaxConcurrent (its stages must run concurrently or the
// pipe between them deadlocks).
func (e *Engine) run(ctx *Context, in io.Reader, acquireSlot bool) (io.ReadCloser, error) {
	if ctx == nil || ctx.Task == nil {
		return nil, errors.New("storlet: nil context or task")
	}
	name := ctx.Task.Filter
	f, ok := e.Get(name)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotDeployed, name)
	}
	br := e.breakerFor(name)
	var probe bool
	if br != nil {
		admitted, p := br.admit()
		if !admitted {
			e.countRejection(name)
			return nil, &FilterError{Filter: name, Err: ErrBreakerOpen}
		}
		probe = p
	}
	holdsSlot := acquireSlot && e.slots != nil
	if holdsSlot {
		if err := e.acquire(ctx.Ctx); err != nil {
			e.countRejection(name)
			if br != nil {
				// Says nothing about the filter's health; an inconclusive
				// probe re-arms the open breaker.
				br.record(err, probe, false)
			}
			return nil, &FilterError{Filter: name, Err: err}
		}
	}
	pr, pw := io.Pipe()
	cin := &countingReader{r: in}
	cout := &countingWriter{w: pw, max: e.limits.MaxOutputBytes}
	start := time.Now()
	done := make(chan struct{})
	var timedOut atomic.Bool
	go func() {
		defer close(done)
		if holdsSlot {
			defer func() { <-e.slots }()
		}
		err := invokeSafely(f, ctx, cin, cout)
		if timedOut.Load() && (err == nil || errors.Is(err, io.ErrClosedPipe)) {
			// The deadline closed the pipe out from under the filter; its
			// writes saw ErrClosedPipe but the real cause is the timeout.
			err = timeoutError(name, e.limits.Timeout)
		}
		err = wrapFilterError(name, err)
		e.account(name, cin.n, cout.n, time.Since(start), err)
		if br != nil {
			br.record(err, probe, countableFailure(name, err))
		}
		pw.CloseWithError(err)
	}()
	if e.limits.Timeout > 0 {
		// Closing only the write side delivers the timeout error to the
		// reader (CloseWithError on the read side would mask it with
		// ErrClosedPipe) and makes the runaway filter's next write fail.
		timer := time.AfterFunc(e.limits.Timeout, func() {
			timedOut.Store(true)
			pw.CloseWithError(timeoutError(name, e.limits.Timeout))
		})
		go func() {
			<-done
			timer.Stop()
		}()
	}
	return pr, nil
}

func timeoutError(name string, d time.Duration) error {
	return &FilterError{Filter: name, Err: fmt.Errorf("%w after %v", ErrFilterTimeout, d)}
}

// wrapFilterError attributes err to the named filter unless it is already a
// *FilterError (its own, or one propagated from an upstream chain stage).
func wrapFilterError(name string, err error) error {
	if err == nil {
		return nil
	}
	var fe *FilterError
	if errors.As(err, &fe) {
		return err
	}
	return &FilterError{Filter: name, Err: err}
}

// countableFailure reports whether err should count against the named
// filter's breaker. Failures that say nothing about the filter's health do
// not: the caller abandoned the stream (bare ErrClosedPipe), or an upstream
// chain stage failed first and this stage merely propagated its error.
func countableFailure(name string, err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, io.ErrClosedPipe) && !errors.Is(err, ErrFilterTimeout) {
		return false
	}
	var fe *FilterError
	if errors.As(err, &fe) && fe.Filter != name {
		return false
	}
	return true
}

// RunChain pipes in through each task's filter in order (pipelining). Every
// stage gets its own sandbox goroutine; ranges apply to the first stage only
// (later stages see the previous stage's output, not raw object bytes).
func (e *Engine) RunChain(base *Context, tasks []*pushdown.Task, in io.Reader) (io.ReadCloser, error) {
	if len(tasks) == 0 {
		return nil, errors.New("storlet: empty task chain")
	}
	var cur io.ReadCloser = io.NopCloser(in)
	for i, task := range tasks {
		ctx := &Context{
			Ctx:        base.Ctx,
			Task:       task,
			ObjectSize: base.ObjectSize,
			Log:        base.Log,
		}
		if i == 0 {
			ctx.RangeStart, ctx.RangeEnd = base.RangeStart, base.RangeEnd
		} else {
			// Later stages consume an unbounded derived stream.
			ctx.RangeStart, ctx.RangeEnd = 0, int64(1)<<62
		}
		next, err := e.run(ctx, cur, i == 0)
		if err != nil {
			cur.Close()
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

func (e *Engine) account(name string, in, out int64, wall time.Duration, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.stats[name]
	if !ok {
		s = &Stats{}
		e.stats[name] = s
	}
	s.Invocations++
	s.BytesIn += in
	s.BytesOut += out
	s.WallTime += wall
	if err != nil {
		s.Errors++
	}
}

// invokeSafely converts filter panics into errors (the sandbox boundary).
func invokeSafely(f Filter, ctx *Context, in io.Reader, out io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panicked: %v", r)
		}
	}()
	return f.Invoke(ctx, in, out)
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

type countingWriter struct {
	w   io.Writer
	n   int64
	max int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.max > 0 && c.n+int64(len(p)) > c.max {
		return 0, ErrOutputLimit
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
