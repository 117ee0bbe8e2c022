package compute

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCollectsInOrder(t *testing.T) {
	d, err := NewDriver(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]Task, 10)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) (any, error) { return i * i, nil }
	}
	res, stats, err := d.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v.(int) != i*i {
			t.Errorf("res[%d] = %v", i, v)
		}
	}
	if stats.Tasks != 10 || stats.Attempts != 10 || stats.Failures != 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRunEmpty(t *testing.T) {
	d, _ := NewDriver(DefaultConfig())
	res, stats, err := d.Run(nil, nil)
	if err != nil || len(res) != 0 || stats.Tasks != 0 {
		t.Errorf("empty run: %v %+v %v", res, stats, err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewDriver(Config{Workers: 0}); err == nil {
		t.Error("0 workers should fail")
	}
	if _, err := NewDriver(Config{Workers: 1, Retries: -1}); err == nil {
		t.Error("negative retries should fail")
	}
	d, _ := NewDriver(Config{Workers: 7})
	if d.Workers() != 7 {
		t.Error("Workers()")
	}
}

func TestRetrySucceeds(t *testing.T) {
	d, _ := NewDriver(Config{Workers: 2, Retries: 2})
	var calls atomic.Int64
	flaky := func(context.Context) (any, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return "ok", nil
	}
	res, stats, err := d.Run(context.Background(), []Task{flaky})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "ok" || stats.Attempts != 3 || stats.Failures != 2 {
		t.Errorf("res=%v stats=%+v", res, stats)
	}
}

func TestRetryExhaustedFailsJob(t *testing.T) {
	d, _ := NewDriver(Config{Workers: 2, Retries: 1})
	bad := func(context.Context) (any, error) { return nil, errors.New("disk gone") }
	good := func(context.Context) (any, error) { return 1, nil }
	_, stats, err := d.Run(context.Background(), []Task{good, bad, good})
	if err == nil {
		t.Fatal("job should fail")
	}
	if stats.Failures < 2 { // 2 attempts of the bad task
		t.Errorf("stats = %+v", stats)
	}
}

func TestFailureCancelsPeers(t *testing.T) {
	d, _ := NewDriver(Config{Workers: 2, Retries: 0})
	var cancelled atomic.Bool
	slow := func(ctx context.Context) (any, error) {
		select {
		case <-ctx.Done():
			cancelled.Store(true)
			return nil, ctx.Err()
		case <-time.After(2 * time.Second):
			return nil, nil
		}
	}
	bad := func(context.Context) (any, error) { return nil, errors.New("boom") }
	start := time.Now()
	_, _, err := d.Run(context.Background(), []Task{slow, bad})
	if err == nil {
		t.Fatal("job should fail")
	}
	if time.Since(start) > time.Second {
		t.Error("failure did not cancel the slow peer promptly")
	}
}

func TestContextCancellation(t *testing.T) {
	d, _ := NewDriver(Config{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	tasks := []Task{
		func(context.Context) (any, error) { cancel(); return 1, nil },
		func(context.Context) (any, error) { return 2, nil },
		func(context.Context) (any, error) { return 3, nil },
	}
	_, _, err := d.Run(ctx, tasks)
	if err == nil {
		t.Error("cancelled job should report an error")
	}
}

func TestParallelismBound(t *testing.T) {
	const workers = 3
	d, _ := NewDriver(Config{Workers: workers})
	var cur, max atomic.Int64
	tasks := make([]Task, 20)
	for i := range tasks {
		tasks[i] = func(context.Context) (any, error) {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(2 * time.Millisecond)
			cur.Add(-1)
			return nil, nil
		}
	}
	if _, _, err := d.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > workers {
		t.Errorf("max parallelism = %d, want <= %d", got, workers)
	}
}

func TestBusyTimeAccounted(t *testing.T) {
	d, _ := NewDriver(Config{Workers: 2})
	tasks := []Task{
		func(context.Context) (any, error) { time.Sleep(10 * time.Millisecond); return nil, nil },
		func(context.Context) (any, error) { time.Sleep(10 * time.Millisecond); return nil, nil },
	}
	_, stats, err := d.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BusyTime < 15*time.Millisecond {
		t.Errorf("busy = %v", stats.BusyTime)
	}
	if stats.WallTime <= 0 {
		t.Errorf("wall = %v", stats.WallTime)
	}
}

func TestManyTasksFewWorkers(t *testing.T) {
	d, _ := NewDriver(Config{Workers: 2})
	tasks := make([]Task, 200)
	for i := range tasks {
		i := i
		tasks[i] = func(context.Context) (any, error) { return fmt.Sprint(i), nil }
	}
	res, _, err := d.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	if res[199].(string) != "199" {
		t.Errorf("res[199] = %v", res[199])
	}
}

func TestRetryBackoffStillSucceeds(t *testing.T) {
	d, _ := NewDriver(Config{Workers: 1, Retries: 2, RetryBackoff: 2 * time.Millisecond, Seed: 7})
	var calls atomic.Int64
	flaky := func(context.Context) (any, error) {
		if calls.Add(1) < 2 {
			return nil, errors.New("overloaded")
		}
		return "ok", nil
	}
	res, stats, err := d.Run(context.Background(), []Task{flaky})
	if err != nil {
		t.Fatal(err)
	}
	if res[0] != "ok" || stats.Attempts != 2 || stats.Failures != 1 {
		t.Errorf("res=%v stats=%+v", res, stats)
	}
}

func TestRetryBackoffAbortsOnCancel(t *testing.T) {
	// A huge backoff ceiling must not hold a cancelled job hostage: the
	// pause honors the job context.
	d, _ := NewDriver(Config{Workers: 1, Retries: 1, RetryBackoff: time.Hour, Seed: 7})
	ctx, cancel := context.WithCancel(context.Background())
	bad := func(context.Context) (any, error) {
		cancel() // fail once the job is running, then die during the backoff
		return nil, errors.New("always broken")
	}
	start := time.Now()
	_, _, err := d.Run(ctx, []Task{bad})
	if err == nil {
		t.Fatal("cancelled job should fail")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("backoff ignored cancellation: %v", elapsed)
	}
}

// maxGauge tracks a counter and the highest value it reached.
type maxGauge struct{ cur, max atomic.Int64 }

func (g *maxGauge) add(d int64) {
	n := g.cur.Add(d)
	for m := g.max.Load(); n > m && !g.max.CompareAndSwap(m, n); m = g.max.Load() {
	}
}

// At most Workers tasks compute at once, and at most 2·Workers − 1 are in
// flight: the others wait out their round trip in Blocking.
func TestBlockingBoundsSlotsAndFlight(t *testing.T) {
	const workers = 3
	d, _ := NewDriver(Config{Workers: workers})
	var computing, inFlight maxGauge
	work := func() {
		computing.add(1)
		time.Sleep(time.Millisecond)
		computing.add(-1)
	}
	tasks := make([]Task, 30)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) (any, error) {
			inFlight.add(1)
			defer inFlight.add(-1)
			work()
			err := Blocking(ctx, func() error { time.Sleep(5 * time.Millisecond); return nil })
			work()
			return nil, err
		}
	}
	if _, _, err := d.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if got := computing.max.Load(); got > workers {
		t.Errorf("%d tasks computed at once, want at most %d", got, workers)
	}
	if got := inFlight.max.Load(); got > 2*workers-1 || got <= workers {
		t.Errorf("%d tasks in flight at once, want more than %d and at most %d", got, workers, 2*workers-1)
	}
}

// One worker runs one task at a time, even when the task blocks: task i + 1
// starts after task i returns.
func TestOneWorkerStaysSerial(t *testing.T) {
	d, _ := NewDriver(Config{Workers: 1})
	var mu sync.Mutex
	var events []string
	log := func(s string) {
		mu.Lock()
		events = append(events, s)
		mu.Unlock()
	}
	tasks := make([]Task, 5)
	var want []string
	for i := range tasks {
		want = append(want, fmt.Sprint("start ", i), fmt.Sprint("end ", i))
		tasks[i] = func(ctx context.Context) (any, error) {
			log(fmt.Sprint("start ", i))
			defer log(fmt.Sprint("end ", i))
			return nil, Blocking(ctx, func() error { time.Sleep(time.Millisecond); return nil })
		}
	}
	if _, _, err := d.Run(context.Background(), tasks); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(events) != fmt.Sprint(want) {
		t.Errorf("events %v, want %v", events, want)
	}
}

// A failure inside Blocking fails the attempt: the whole task is re-run, and
// the results still come back in task order.
func TestBlockingFailureRetriesWholeTask(t *testing.T) {
	d, _ := NewDriver(Config{Workers: 2, Retries: 1})
	var starts, opens atomic.Int64
	tasks := make([]Task, 8)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) (any, error) {
			if i == 3 {
				starts.Add(1)
			}
			err := Blocking(ctx, func() error {
				if i == 3 && opens.Add(1) == 1 {
					return errors.New("connection reset")
				}
				time.Sleep(time.Millisecond)
				return nil
			})
			if err != nil {
				return nil, err
			}
			return i * 10, nil
		}
	}
	res, stats, err := d.Run(context.Background(), tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res {
		if v.(int) != i*10 {
			t.Errorf("res[%d] = %v", i, v)
		}
	}
	if starts.Load() != 2 || stats.Attempts != 9 || stats.Failures != 1 {
		t.Errorf("task 3 started %d times; stats %+v", starts.Load(), stats)
	}
}

// Cancelling the job while tasks sit in Blocking, one of them waiting to take
// its slot back, returns promptly and leaves no goroutine behind.
func TestCancelDuringBlocking(t *testing.T) {
	before := runtime.NumGoroutine()
	d, _ := NewDriver(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	entered := make(chan struct{})
	computing := make(chan struct{}, 2)
	var reacquireErr atomic.Value
	tasks := make([]Task, 6)
	for i := range tasks {
		tasks[i] = func(ctx context.Context) (any, error) {
			if i > 0 { // once task 0 is in Blocking, hold both slots until the job dies
				if err := Blocking(ctx, func() error { <-entered; return nil }); err != nil {
					return nil, err
				}
				computing <- struct{}{}
				<-ctx.Done()
				return nil, ctx.Err()
			}
			err := Blocking(ctx, func() error {
				close(entered)
				<-computing
				<-computing
				cancel() // both slots are held: taking one back must give up
				return nil
			})
			reacquireErr.Store(fmt.Sprint(err))
			return nil, err
		}
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := d.Run(ctx, tasks)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancel")
	}
	if got := reacquireErr.Load(); got != context.Canceled.Error() {
		t.Errorf("Blocking returned %v, want %v", got, context.Canceled)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Run, %d before", n, before)
	}
}

// BusyTime counts time a task holds its slot, not time it spends in Blocking.
func TestBusyTimeExcludesBlocking(t *testing.T) {
	d, _ := NewDriver(Config{Workers: 1})
	task := func(ctx context.Context) (any, error) {
		err := Blocking(ctx, func() error { time.Sleep(40 * time.Millisecond); return nil })
		time.Sleep(2 * time.Millisecond)
		return nil, err
	}
	_, stats, err := d.Run(context.Background(), []Task{task, task})
	if err != nil {
		t.Fatal(err)
	}
	if stats.BusyTime < 4*time.Millisecond || stats.BusyTime >= 40*time.Millisecond {
		t.Errorf("busy = %v, want the 4ms held outside Blocking, not the 80ms inside it", stats.BusyTime)
	}
	if stats.WallTime < 80*time.Millisecond {
		t.Errorf("wall = %v", stats.WallTime)
	}
}

// Outside a driver's task, Blocking is a plain call.
func TestBlockingOutsideDriver(t *testing.T) {
	want := errors.New("x")
	if err := Blocking(context.Background(), func() error { return want }); err != want {
		t.Errorf("Blocking = %v, want %v", err, want)
	}
}
