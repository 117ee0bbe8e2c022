// Package compute is the miniature Spark of this reproduction: a driver
// that splits a job into per-partition tasks, schedules them on a fixed pool
// of workers, retries failures a bounded number of times, and collects the
// results. It reproduces the execution-flow properties the paper depends on:
// parallel object requests from many tasks, and a final merge at the driver
// (§V-B's staged execution plan).
package compute

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one schedulable unit. Implementations must be safe to retry.
type Task func(ctx context.Context) (any, error)

// Config sizes the worker pool.
type Config struct {
	// Workers is the number of worker slots, tasks computing at once
	// (paper testbed: 25); tasks in Blocking hold none.
	Workers int
	// Retries is how many times a failing task is re-run before the job
	// fails (Spark's spark.task.maxFailures - 1). A re-run starts at once:
	// the pacing of a failed request is the client's retry policy, inside
	// the task.
	Retries int
}

// DefaultConfig matches a small local deployment.
func DefaultConfig() Config { return Config{Workers: 4, Retries: 1} }

// Stats describes a finished job.
type Stats struct {
	Tasks    int
	Attempts int64
	Failures int64
	WallTime time.Duration
	// BusyTime is summed time tasks held a worker slot, time spent in
	// Blocking excluded (CPU-seconds proxy for the compute-cluster usage in
	// Fig. 9(a)).
	BusyTime time.Duration
}

// Driver schedules jobs.
type Driver struct {
	cfg Config
}

// NewDriver validates the config and returns a driver.
func NewDriver(cfg Config) (*Driver, error) {
	if cfg.Workers < 1 {
		return nil, fmt.Errorf("compute: need at least one worker")
	}
	if cfg.Retries < 0 {
		return nil, fmt.Errorf("compute: negative retries")
	}
	return &Driver{cfg: cfg}, nil
}

// Workers returns the configured parallelism.
func (d *Driver) Workers() int { return d.cfg.Workers }

// Run executes all tasks with bounded parallelism and returns their results
// in task order. The first task error (after retries) cancels the job and is
// returned. A nil ctx means context.Background().
//
// min(2·Workers − 1, len(tasks)) task goroutines take a worker slot before
// each attempt and give it back after it. One task fewer than 2·Workers
// keeps a one-worker driver strictly serial, which seeded chaos runs rely on.
func (d *Driver) Run(ctx context.Context, tasks []Task) ([]any, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	start := time.Now()
	results := make([]any, len(tasks))
	stats := Stats{Tasks: len(tasks)}
	if len(tasks) == 0 {
		return results, stats, nil
	}

	jobCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct{ i int }
	jobs := make(chan job)
	var (
		wg       sync.WaitGroup
		attempts atomic.Int64
		failures atomic.Int64
		busyNs   atomic.Int64
		errOnce  sync.Once
		jobErr   error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			jobErr = err
			cancel()
		})
	}
	slots := make(chan struct{}, d.cfg.Workers)
	for range min(2*d.cfg.Workers-1, len(tasks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sl := &slot{slots: slots, busyNs: &busyNs}
			taskCtx := context.WithValue(jobCtx, slotKey{}, sl)
			for j := range jobs {
				var lastErr error
				ok := false
				for attempt := 0; attempt <= d.cfg.Retries; attempt++ {
					if jobCtx.Err() != nil {
						return
					}
					if !sl.acquire(jobCtx) {
						return
					}
					attempts.Add(1)
					v, err := tasks[j.i](taskCtx)
					sl.release()
					if err == nil {
						results[j.i] = v
						ok = true
						break
					}
					failures.Add(1)
					lastErr = err
				}
				if !ok {
					fail(fmt.Errorf("compute: task %d failed after %d attempts: %w", j.i, d.cfg.Retries+1, lastErr))
					return
				}
			}
		}()
	}
feed:
	for i := range tasks {
		select {
		case jobs <- job{i}:
		case <-jobCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	stats.Attempts = attempts.Load()
	stats.Failures = failures.Load()
	stats.BusyTime = time.Duration(busyNs.Load())
	stats.WallTime = time.Since(start)
	if jobErr != nil {
		return nil, stats, jobErr
	}
	if err := ctx.Err(); err != nil {
		return nil, stats, err
	}
	return results, stats, nil
}

// slot is one task goroutine's claim on the driver's worker slots, reached
// from the task through its context.
type slot struct {
	slots  chan struct{}
	busyNs *atomic.Int64
	since  time.Time
	held   bool
}

type slotKey struct{}

// acquire takes a worker slot, returning false when ctx dies first.
func (s *slot) acquire(ctx context.Context) bool {
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	s.held, s.since = true, time.Now()
	return true
}

// release gives the slot back, if held, and books the time it was held.
func (s *slot) release() {
	if !s.held {
		return
	}
	s.held = false
	s.busyNs.Add(int64(time.Since(s.since)))
	<-s.slots
}

// Blocking runs fn, which should wait rather than compute (a GET until its
// headers arrive), with the calling task's worker slot given back, so
// another task computes meanwhile. It then takes a slot again, returning
// ctx's error if ctx dies first. Call it from the task's own goroutine;
// outside a driver's task it just calls fn.
func Blocking(ctx context.Context, fn func() error) error {
	s, _ := ctx.Value(slotKey{}).(*slot)
	if s == nil || !s.held {
		return fn()
	}
	s.release()
	err := fn()
	if !s.acquire(ctx) && err == nil {
		err = ctx.Err()
	}
	return err
}
