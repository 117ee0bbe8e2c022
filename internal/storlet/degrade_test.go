package storlet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"scoop/internal/pushdown"
)

// blocking returns a filter that parks until release is closed. It writes
// nothing: an undrained output pipe must not keep the slot hostage after the
// release.
func blocking(name string, release <-chan struct{}) Filter {
	return FilterFunc{FilterName: name, Fn: func(_ *Context, _ io.Reader, _ io.Writer) error {
		<-release
		return nil
	}}
}

// occupySlot starts an invocation of the named (blocking) filter; by the
// time it returns, the filter holds one engine slot.
func occupySlot(t *testing.T, e *Engine, name string) {
	t.Helper()
	ctx := &Context{Task: &pushdown.Task{Filter: name}}
	rc, err := e.RunChain(ctx, []*pushdown.Task{ctx.Task}, strings.NewReader("x"))
	if err != nil {
		t.Fatalf("occupy slot: %v", err)
	}
	t.Cleanup(func() { rc.Close() })
}

func TestTypedErrNotDeployed(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper)
	_, err := runTask(t, e, "nope", "x")
	if !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("want ErrNotDeployed, got %v", err)
	}
	if err := e.Unregister("ghost"); !errors.Is(err, ErrNotDeployed) {
		t.Fatalf("Unregister: want ErrNotDeployed, got %v", err)
	}
}

func TestTypedErrTimeout(t *testing.T) {
	stall := FilterFunc{FilterName: "stall", Fn: func(_ *Context, _ io.Reader, _ io.Writer) error {
		time.Sleep(200 * time.Millisecond)
		return nil
	}}
	e := newTestEngine(t, Limits{Timeout: 10 * time.Millisecond}, stall)
	_, err := runTask(t, e, "stall", "x")
	if !errors.Is(err, ErrFilterTimeout) {
		t.Fatalf("want ErrFilterTimeout, got %v", err)
	}
	var fe *FilterError
	if !errors.As(err, &fe) || fe.Filter != "stall" {
		t.Fatalf("want *FilterError for stall, got %v", err)
	}
}

func TestTypedErrOutputLimit(t *testing.T) {
	e := newTestEngine(t, Limits{MaxOutputBytes: 4}, upper)
	_, err := runTask(t, e, "upper", "more than four bytes")
	if !errors.Is(err, ErrOutputLimit) {
		t.Fatalf("want ErrOutputLimit, got %v", err)
	}
}

func TestTypedErrPanic(t *testing.T) {
	e := newTestEngine(t, Limits{}, panicky)
	_, err := runTask(t, e, "panicky", "x")
	var fe *FilterError
	if !errors.As(err, &fe) || fe.Filter != "panicky" {
		t.Fatalf("want *FilterError for panicky, got %v", err)
	}
	if !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panic cause lost: %v", err)
	}
}

func TestOverloadImmediateReject(t *testing.T) {
	release := make(chan struct{})
	e := newTestEngine(t, Limits{MaxConcurrent: 1, MaxQueue: -1}, upper, blocking("block", release))
	occupySlot(t, e, "block")
	_, err := runTask(t, e, "upper", "x")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded, got %v", err)
	}
	var fe *FilterError
	if !errors.As(err, &fe) || fe.Filter != "upper" {
		t.Fatalf("want *FilterError attributing upper, got %v", err)
	}
	if s := e.StatsFor("upper"); s.Rejections != 1 {
		t.Fatalf("Rejections = %d, want 1", s.Rejections)
	}
	close(release)
	// The slot is released asynchronously after the blocker finishes; the
	// same task must succeed once it is back.
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := runTask(t, e, "upper", "ok")
		if err == nil {
			if got != "OK" {
				t.Fatalf("after release: got %q", got)
			}
			return
		}
		if !errors.Is(err, ErrOverloaded) || time.Now().After(deadline) {
			t.Fatalf("after release: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOverloadQueueWaitDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	e := newTestEngine(t, Limits{MaxConcurrent: 1, QueueWait: 10 * time.Millisecond},
		upper, blocking("block", release))
	occupySlot(t, e, "block")
	start := time.Now()
	_, err := runTask(t, e, "upper", "x")
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded after QueueWait, got %v", err)
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Fatalf("rejected before the deadline (%v)", waited)
	}
}

func TestOverloadBoundedQueue(t *testing.T) {
	release := make(chan struct{})
	e := newTestEngine(t, Limits{MaxConcurrent: 1, MaxQueue: 1},
		upper, blocking("block", release))
	occupySlot(t, e, "block")

	// First waiter occupies the single queue spot.
	queued := make(chan error, 1)
	go func() {
		_, err := runTask(t, e, "upper", "queued")
		queued <- err
	}()
	// Wait until it is actually parked in the queue.
	for i := 0; e.waiting.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if e.waiting.Load() != 1 {
		t.Fatal("waiter never queued")
	}
	// Queue is full: the next request is shed immediately.
	if _, err := runTask(t, e, "upper", "shed"); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("want ErrOverloaded for second waiter, got %v", err)
	}
	close(release)
	if err := <-queued; err != nil {
		t.Fatalf("queued request failed after slot freed: %v", err)
	}
}

func TestQueueAbortOnContextCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	e := newTestEngine(t, Limits{MaxConcurrent: 1}, upper, blocking("block", release))
	occupySlot(t, e, "block")

	cctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		ctx := &Context{Ctx: cctx, Task: &pushdown.Task{Filter: "upper"}}
		_, err := e.RunChain(ctx, []*pushdown.Task{ctx.Task}, strings.NewReader("x"))
		got <- err
	}()
	for i := 0; e.waiting.Load() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-got:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued request did not abort on cancel")
	}
}

// TestSlotWaitGoroutineLeak is the regression test for the old storlet.go
// leak: a sandbox goroutine parked on `e.slots <-` forever once its caller
// walked away. Slot acquisition now happens on the requester's goroutine and
// is cancellable, so an abandoned request must leave no goroutine behind.
func TestSlotWaitGoroutineLeak(t *testing.T) {
	release := make(chan struct{})
	e := newTestEngine(t, Limits{MaxConcurrent: 1}, upper, blocking("block", release))
	occupySlot(t, e, "block")

	baseline := runtime.NumGoroutine()
	const abandoned = 8
	done := make(chan struct{}, abandoned)
	for i := 0; i < abandoned; i++ {
		go func() {
			defer func() { done <- struct{}{} }()
			cctx, cancel := context.WithCancel(context.Background())
			errc := make(chan error, 1)
			go func() {
				ctx := &Context{Ctx: cctx, Task: &pushdown.Task{Filter: "upper"}}
				_, err := e.RunChain(ctx, []*pushdown.Task{ctx.Task}, strings.NewReader("x"))
				errc <- err
			}()
			// The caller walks away: cancel and never touch the stream.
			cancel()
			<-errc
		}()
	}
	for i := 0; i < abandoned; i++ {
		<-done
	}
	// Settle: give any stragglers time to exit, then compare counts.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
		runtime.Gosched()
	}
	if n := runtime.NumGoroutine(); n > baseline+1 {
		t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, n)
	}
	close(release)
}

// flakyFilter fails while its switch is on.
func flakyFilter(name string, failing *atomic.Bool) Filter {
	return FilterFunc{FilterName: name, Fn: func(_ *Context, in io.Reader, out io.Writer) error {
		if failing.Load() {
			return fmt.Errorf("flaky: scripted failure")
		}
		_, err := io.Copy(out, in)
		return err
	}}
}

func TestBreakerOpensProbesRecloses(t *testing.T) {
	var failing atomic.Bool
	failing.Store(true)
	policy := BreakerPolicy{Threshold: 2, Cooldown: 2, Jitter: 1, Seed: 7}
	e := newTestEngine(t, Limits{Breaker: policy}, flakyFilter("flaky", &failing))

	// Two consecutive failures trip the breaker.
	for i := 0; i < 2; i++ {
		if _, err := runTask(t, e, "flaky", "x"); err == nil {
			t.Fatal("scripted failure did not surface")
		}
	}
	if st := breakerState(e, "flaky"); st != "open" {
		t.Fatalf("state after threshold = %q, want open", st)
	}
	if s := e.StatsFor("flaky"); s.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", s.BreakerOpens)
	}
	// Open: requests are refused with ErrBreakerOpen until the refusal
	// budget admits a half-open probe; the probe still fails, re-opening.
	refusals, probed := 0, false
	for i := 0; i < 10 && !probed; i++ {
		_, err := runTask(t, e, "flaky", "x")
		if errors.Is(err, ErrBreakerOpen) {
			refusals++
			continue
		}
		probed = true // admitted probe, failed with the filter's own error
	}
	if !probed {
		t.Fatal("breaker never admitted a half-open probe")
	}
	if max := policy.Cooldown + policy.Jitter; refusals > max {
		t.Fatalf("refusals before probe = %d, want <= %d", refusals, max)
	}
	if s := e.StatsFor("flaky"); s.BreakerOpens != 2 {
		t.Fatalf("BreakerOpens after failed probe = %d, want 2", s.BreakerOpens)
	}
	// Heal the filter: the next admitted probe closes the breaker.
	failing.Store(false)
	healed := false
	for i := 0; i < 10 && !healed; i++ {
		if out, err := runTask(t, e, "flaky", "ok"); err == nil {
			if out != "ok" {
				t.Fatalf("probe output = %q", out)
			}
			healed = true
		}
	}
	if !healed {
		t.Fatal("breaker never admitted the healing probe")
	}
	if st := breakerState(e, "flaky"); st != "closed" {
		t.Fatalf("state after healed probe = %q, want closed", st)
	}
	if _, err := runTask(t, e, "flaky", "x"); err != nil {
		t.Fatalf("closed breaker refused a healthy filter: %v", err)
	}
}

// TestBreakerDeterministicProbePoints: same seed, same failure sequence →
// the same refusal count before each probe. No wall-clock anywhere.
func TestBreakerDeterministicProbePoints(t *testing.T) {
	run := func() []int {
		var failing atomic.Bool
		failing.Store(true)
		e := newTestEngine(t, Limits{Breaker: BreakerPolicy{Threshold: 1, Cooldown: 3, Jitter: 2, Seed: 99}},
			flakyFilter("flaky", &failing))
		var trace []int
		refusals := 0
		for i := 0; i < 40; i++ {
			_, err := runTask(t, e, "flaky", "x")
			if errors.Is(err, ErrBreakerOpen) {
				refusals++
				continue
			}
			trace = append(trace, refusals)
			refusals = 0
		}
		return trace
	}
	a, b := run(), run()
	if len(a) == 0 || fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("probe points diverged across same-seed runs: %v vs %v", a, b)
	}
}

func TestBreakerRefusalNotCountedAgainstChainPropagation(t *testing.T) {
	// Stage 0 fails; stage 1 (upper) merely propagates the error. Stage 1's
	// breaker must stay closed — the failure is not its fault.
	var failing atomic.Bool
	failing.Store(true)
	e := newTestEngine(t, Limits{Breaker: BreakerPolicy{Threshold: 2, Seed: 3}},
		flakyFilter("flaky", &failing), upper)
	base := &Context{RangeEnd: 1, ObjectSize: 1}
	tasks := []*pushdown.Task{{Filter: "flaky"}, {Filter: "upper"}}
	// Two chain runs propagate flaky's failure through upper and trip
	// flaky's breaker at the threshold.
	for i := 0; i < 2; i++ {
		rc, err := e.RunChain(base, tasks, strings.NewReader("x"))
		if err != nil {
			t.Fatalf("chain start: %v", err)
		}
		_, err = io.ReadAll(rc)
		rc.Close()
		var fe *FilterError
		if !errors.As(err, &fe) || fe.Filter != "flaky" {
			t.Fatalf("chain error not attributed to first stage: %v", err)
		}
	}
	// The third chain is refused up-front by flaky's open breaker.
	if _, err := e.RunChain(base, tasks, strings.NewReader("x")); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("want ErrBreakerOpen starting third chain, got %v", err)
	}
	if st := breakerState(e, "upper"); st != "closed" {
		t.Fatalf("upper's breaker = %q, want closed (propagated failures are uncountable)", st)
	}
	if st := breakerState(e, "flaky"); st != "open" {
		t.Fatalf("flaky's breaker = %q, want open", st)
	}
}

// breakerState reports a filter's circuit-breaker state: "closed", "open" or
// "half-open". A filter without a breaker reports "closed".
func breakerState(e *Engine, name string) string {
	e.mu.RLock()
	br := e.breakers[name]
	e.mu.RUnlock()
	if br == nil {
		return "closed"
	}
	br.mu.Lock()
	defer br.mu.Unlock()
	switch br.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
