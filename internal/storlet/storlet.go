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
// error. Failures is the one table that says what every layer does with
// such an error: the handler's status, the client's retry, the proxy's
// failover, the query's fallback and the engine's own accounting.
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
	// Errors counts the invocations that failed with a class that counts
	// (Class.Counts) and is attributed to this filter: a failed input, a
	// stream its reader abandoned, or an upstream stage's failure passed
	// on, is none.
	Errors   int64
	BytesIn  int64
	BytesOut int64
	WallTime time.Duration
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
	mu sync.RWMutex
	// filters is the one namespace of deployed filters and pipelines.
	filters  map[string]entry
	stats    map[string]*Stats
	breakers map[string]*breaker
	limits   Limits
	// slots is the concurrency semaphore when MaxConcurrent > 0.
	slots chan struct{}
	// waiting counts requests queued for a slot (bounded by MaxQueue > 0).
	waiting atomic.Int64
}

// entry is one deployed name: a filter, or a pipeline's flat steps, which
// RunChain runs in its place.
type entry struct {
	filter Filter
	steps  []*pushdown.Task
}

// NewEngine returns an engine with the given limits.
func NewEngine(limits Limits) *Engine {
	e := &Engine{
		filters:  make(map[string]entry),
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
	e.filters[f.Name()] = entry{filter: f}
	e.stats[f.Name()] = &Stats{}
	return nil
}

// Unregister removes a deployed filter or pipeline.
func (e *Engine) Unregister(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.filters[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotDeployed, name)
	}
	delete(e.filters, name)
	return nil
}

// Get looks up a deployed name. A pipeline is deployed without a Filter of
// its own: its Filter is nil.
func (e *Engine) Get(name string) (Filter, bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	d, ok := e.filters[name]
	return d.filter, ok
}

// Names returns the deployed filter and pipeline names, sorted.
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

// run invokes one stage, f, in its own goroutine (the sandbox); a panic,
// timeout or output overrun surfaces as a *FilterError from the returned
// reader. upstream is nil for a chain's first stage, which alone takes a
// slot: a pipelined chain counts as ONE request against MaxConcurrent (its
// stages must run concurrently or the pipe between them deadlocks). A later
// stage reads the previous stage's output, upstream, and closes it when its
// filter returns, so a previous stage blocked on a write ends too.
func (e *Engine) run(ctx *Context, f Filter, in io.Reader, upstream io.Closer) (io.ReadCloser, error) {
	name := ctx.Task.Filter
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
	holdsSlot := upstream == nil && e.slots != nil
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
	var timedOut atomic.Bool
	var timer *time.Timer
	if e.limits.Timeout > 0 {
		// Closing only the write side delivers the timeout error to the
		// reader (CloseWithError on the read side would mask it with
		// ErrClosedPipe) and makes the runaway filter's next write fail.
		timer = time.AfterFunc(e.limits.Timeout, func() {
			timedOut.Store(true)
			pw.CloseWithError(timeoutError(name, e.limits.Timeout))
		})
	}
	go func() {
		if holdsSlot {
			defer func() { <-e.slots }()
		}
		err := invokeSafely(f, ctx, cin, cout)
		if timer != nil {
			timer.Stop()
		}
		if upstream != nil {
			upstream.Close()
		}
		if timedOut.Load() && (err == nil || errors.Is(err, io.ErrClosedPipe)) {
			// The deadline closed the pipe out from under the filter; its
			// writes saw ErrClosedPipe but the real cause is the timeout.
			err = timeoutError(name, e.limits.Timeout)
		}
		err = wrapFilterError(name, err, cin.err)
		var fe *FilterError
		failed := errors.As(err, &fe) && fe.Filter == name && Classify(err).Counts
		e.account(name, cin.n, cout.n, time.Since(start), failed)
		if br != nil {
			br.record(err, probe, failed)
		}
		pw.CloseWithError(err)
	}()
	return pr, nil
}

func timeoutError(name string, d time.Duration) error {
	return &FilterError{Filter: name, Err: fmt.Errorf("%w after %v", ErrFilterTimeout, d)}
}

// wrapFilterError attributes err to the named filter unless it is already a
// *FilterError (its own, or one propagated from an upstream chain stage). An
// error that wraps input, the first error the filter's input returned, is
// marked ErrInputFailed: the input failed, not the filter.
func wrapFilterError(name string, err, input error) error {
	if err == nil {
		return nil
	}
	var fe *FilterError
	if errors.As(err, &fe) {
		return err
	}
	if input != nil && errors.Is(err, input) {
		err = fmt.Errorf("%w: %w", ErrInputFailed, err)
	}
	return &FilterError{Filter: name, Err: err}
}

// Unbounded is the range end of a stream whose records all count: the PUT
// pipeline's upload and the derived stream every stage after a chain's
// first reads.
const Unbounded = int64(1) << 62

// RunChain pipes in through each task's filter in order (pipelining). A task
// naming a pipeline is expanded into the pipeline's steps, once, with the
// task's options merged into the first step. Every stage gets its own
// sandbox goroutine; the chain takes one slot; ranges apply to the first
// stage only (later stages see the previous stage's output, not raw object
// bytes). A task naming no deployed filter, or a step naming a pipeline
// deployed after the pipeline holding it, is refused with ErrNotDeployed
// before any stage starts. The chain never closes in; it is Open's body.
func (e *Engine) RunChain(base *Context, tasks []*pushdown.Task, in io.Reader) (io.ReadCloser, error) {
	if base == nil {
		return nil, errors.New("storlet: nil context")
	}
	chain, filters, err := e.expand(tasks)
	if err != nil {
		return nil, err
	}
	var cur io.ReadCloser // the previous stage's output
	for i, task := range chain {
		ctx := &Context{Ctx: base.Ctx, Task: task, RangeEnd: Unbounded, ObjectSize: base.ObjectSize}
		var src io.Reader = cur
		if i == 0 {
			ctx.RangeStart, ctx.RangeEnd = base.RangeStart, base.RangeEnd
			src = in
		}
		next, err := e.run(ctx, filters[i], src, cur)
		if err != nil {
			if cur != nil {
				cur.Close()
			}
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// expand resolves tasks into the chain's steps and the filter each runs.
func (e *Engine) expand(tasks []*pushdown.Task) ([]*pushdown.Task, []Filter, error) {
	if len(tasks) == 0 {
		return nil, nil, errors.New("storlet: empty task chain")
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	chain := make([]*pushdown.Task, 0, len(tasks))
	for _, task := range tasks {
		if task == nil {
			return nil, nil, errors.New("storlet: nil task")
		}
		chain = appendStep(chain, task, e.filters[task.Filter].steps)
	}
	filters := make([]Filter, len(chain))
	for i, task := range chain {
		d := e.filters[task.Filter]
		if d.steps != nil {
			return nil, nil, fmt.Errorf("%w: %q is a pipeline deployed after the pipeline naming it", ErrNotDeployed, task.Filter)
		}
		if filters[i] = d.filter; filters[i] == nil {
			return nil, nil, fmt.Errorf("%w: %q", ErrNotDeployed, task.Filter)
		}
	}
	return chain, filters, nil
}

// Open runs tasks as one chain over in: the first stage keeps the records
// that start in [start, end) of an object of size bytes (-1: unknown), later
// stages read the whole derived stream. The returned stream owns in: its
// Close stops the chain, then closes in, once. A refused chain closes in
// before Open returns.
func (e *Engine) Open(ctx context.Context, tasks []*pushdown.Task, in io.ReadCloser, start, end, size int64) (io.ReadCloser, error) {
	out, err := e.RunChain(&Context{Ctx: ctx, RangeStart: start, RangeEnd: end, ObjectSize: size}, tasks, in)
	if err != nil {
		in.Close()
		return nil, err
	}
	return &owned{ReadCloser: out, in: in}, nil
}

// owned is a chain's output that also closes the chain's input.
type owned struct {
	io.ReadCloser
	in     io.Closer
	closed atomic.Bool
}

func (o *owned) Close() error {
	if o.closed.Swap(true) {
		return nil
	}
	err := o.ReadCloser.Close()
	if cerr := o.in.Close(); err == nil {
		err = cerr
	}
	return err
}

func (e *Engine) account(name string, in, out int64, wall time.Duration, failed bool) {
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
	if failed {
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
	r   io.Reader
	n   int64
	err error // the first error other than io.EOF that r returned
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	if err != nil && c.err == nil && !errors.Is(err, io.EOF) {
		c.err = err
	}
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
