package storlet

import (
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Typed invocation errors. The convention matches the object store's
// *ReplicationError: a sentinel names the category (match with errors.Is)
// and a wrapper struct carries the detail (extract with errors.As). Every
// error delivered by a sandboxed invocation is a *FilterError wrapping one
// of these sentinels or the filter's own error, so callers up the stack
// classify it with Classify and never parse message strings.
var (
	// ErrNotDeployed is returned when a task names a filter the engine does
	// not have.
	ErrNotDeployed = errors.New("storlet: filter not deployed")
	// ErrPushdownDisabled reports a container whose policy forbids pushdown.
	ErrPushdownDisabled = errors.New("storlet: pushdown disabled by container policy")
	// ErrBadTask is wrapped by a filter's argument checks: the task names a
	// column the schema lacks, an option out of range, and the like. Every
	// run of the task fails the same way, here or at the compute side.
	ErrBadTask = errors.New("storlet: bad task")
	// ErrFilterTimeout is returned when an invocation exceeds Limits.Timeout.
	ErrFilterTimeout = errors.New("storlet: filter timed out")
	// ErrOutputLimit is returned when an invocation exceeds
	// Limits.MaxOutputBytes.
	ErrOutputLimit = errors.New("storlet: output limit exceeded")
	// ErrOverloaded is the admission-control rejection: MaxConcurrent slots
	// are all busy and the wait queue is full or the wait deadline passed.
	// It fires before a sandbox goroutine is spawned, so shedding load under
	// saturation costs nothing.
	ErrOverloaded = errors.New("storlet: engine overloaded")
	// ErrBreakerOpen is returned when the filter's circuit breaker refuses
	// the invocation (the filter has been failing persistently).
	ErrBreakerOpen = errors.New("storlet: filter circuit breaker open")
	// ErrInputFailed marks a filter failure whose error wraps the first
	// error the filter's input returned: a replica's disk, its node or the
	// link failed, not the filter.
	ErrInputFailed = errors.New("storlet: filter input failed")
	// ErrFilterFailed matches every *FilterError, and the failure a client
	// decodes from the wire (a filter-failed refusal or the
	// X-Scoop-Filter-Error trailer).
	ErrFilterFailed = errors.New("storlet: filter failed")
	// ErrUnavailable is a pushdown refusal whose reason token the decoding
	// side does not know.
	ErrUnavailable = errors.New("storlet: pushdown unavailable")
)

// FilterError attributes an invocation failure to the filter that caused it.
// Unwrap exposes the cause so errors.Is finds the sentinels above (and any
// error the filter itself returned) through the wrapper.
type FilterError struct {
	// Filter is the name of the filter whose invocation failed.
	Filter string
	// Err is the underlying cause.
	Err error
}

// Error implements error.
func (e *FilterError) Error() string {
	return fmt.Sprintf("storlet: filter %q: %v", e.Filter, e.Err)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *FilterError) Unwrap() error { return e.Err }

// Is makes every FilterError match ErrFilterFailed.
func (e *FilterError) Is(target error) bool { return target == ErrFilterFailed }

// Class is one row of the failure table (DESIGN §8). Reason is the
// X-Scoop-Pushdown-Unavailable token the handler sends and the client
// decodes back to Err, "" for the store's own failure; Err is the sentinel
// the row matches with errors.Is, nil for any error no earlier row matches;
// Cause says what failed; Status is the handler's HTTP answer. Retry: the
// client tries again. Failover: the proxy walks on to the next replica.
// Fallback: the query reads the split again the baseline way, a plain GET
// parsed and filtered at the compute side. Counts: the failure counts
// against the breaker and in Stats.Errors of the filter it is attributed to.
type Class struct {
	Reason                            string
	Err                               error
	Cause                             string
	Status                            int
	Retry, Failover, Fallback, Counts bool
}

// Failures is the failure table. Classify takes the first row whose Err
// the error matches, so a refusal wrapped in a *FilterError finds its own
// row before filter-failed; the last row takes every other error.
var Failures = []Class{
	// Reason, Err, Cause, Status, Retry, Failover, Fallback, Counts
	{"not-deployed", ErrNotDeployed, "the task names no deployed filter", http.StatusServiceUnavailable, false, false, true, false},
	{"disabled", ErrPushdownDisabled, "the container's policy forbids pushdown", http.StatusServiceUnavailable, false, false, true, false},
	{"bad-task", ErrBadTask, "the task's arguments fail the filter's checks", http.StatusBadRequest, false, false, false, false},
	{"overloaded", ErrOverloaded, "every slot is busy and the wait queue is full or timed out", http.StatusServiceUnavailable, true, false, true, false},
	{"breaker-open", ErrBreakerOpen, "the filter's breaker refuses it", http.StatusServiceUnavailable, true, false, true, false},
	{"input-failed", ErrInputFailed, "the filter's input failed: a replica's disk, its node or the link", http.StatusServiceUnavailable, true, true, true, false},
	{"closed", io.ErrClosedPipe, "the stream's reader closed it before its end", http.StatusServiceUnavailable, true, false, true, false},
	{"unavailable", ErrUnavailable, "a refusal whose token the client does not know", http.StatusServiceUnavailable, true, false, true, false},
	{"filter-failed", ErrFilterFailed, "the filter failed: its own error, a panic, the timeout or the output limit", http.StatusServiceUnavailable, false, false, true, true},
	{"", nil, "the store: a node down, no replica left, write quorum missed", http.StatusServiceUnavailable, true, true, false, false},
}

// Classify returns the row of Failures of a non-nil err.
func Classify(err error) Class {
	for _, c := range Failures {
		if c.Err != nil && errors.Is(err, c.Err) {
			return c
		}
	}
	return Failures[len(Failures)-1]
}

// ForReason returns the row a wire reason token names; an unknown token
// is "unavailable".
func ForReason(reason string) Class {
	for _, c := range Failures {
		if c.Reason == reason && c.Reason != "" {
			return c
		}
	}
	return ForReason("unavailable")
}
