package objectstore

import (
	"errors"
	"fmt"
	"net/http"

	"scoop/internal/storlet"
)

// Degradation-ladder signaling (DESIGN §8). The store distinguishes two
// pushdown failure shapes so the connector can react correctly:
//
//   - pre-first-byte: the filter could not start (not deployed, breaker
//     open, engine overloaded, container policy). The handler answers
//     503 + Retry-After with the reason in HeaderPushdownUnavailable,
//     BEFORE any body byte — PR 3's retry machinery may retry, and the
//     connector may fall back to a plain GET + compute-side evaluation.
//   - mid-stream: the filter failed after the 200/206 was on the wire.
//     The handler appends the error to the HeaderFilterError trailer so
//     the client can tell truncation from success; the connector restarts
//     the split on its fallback path.

// Headers used by the degradation ladder.
const (
	// HeaderPushdownUnavailable carries the machine-readable reason a
	// pushdown request was refused pre-first-byte (on a 503).
	HeaderPushdownUnavailable = "X-Scoop-Pushdown-Unavailable"
	// HeaderFilterError is the HTTP trailer carrying a mid-stream filter
	// failure on an otherwise-started pushdown response.
	HeaderFilterError = "X-Scoop-Filter-Error"
)

// Degradation sentinels.
var (
	// ErrPushdownDisabled reports a container whose policy forbids pushdown.
	ErrPushdownDisabled = errors.New("objectstore: pushdown disabled by container policy")
	// ErrPushdownUnavailable reports a pushdown request refused by the store
	// before the first byte (decoded client-side from a 503 + reason header).
	ErrPushdownUnavailable = errors.New("objectstore: pushdown unavailable")
	// ErrFilterFailed reports a pushdown stream that failed mid-flight
	// (decoded client-side from the error trailer).
	ErrFilterFailed = errors.New("objectstore: filter failed mid-stream")
)

// IsPushdownUnavailable reports whether err is a pre-first-byte pushdown
// refusal — the shape the connector degrades on by re-issuing a plain GET.
func IsPushdownUnavailable(err error) bool {
	return errors.Is(err, ErrPushdownUnavailable) ||
		errors.Is(err, ErrPushdownDisabled) ||
		errors.Is(err, storlet.ErrNotDeployed) ||
		errors.Is(err, storlet.ErrOverloaded) ||
		errors.Is(err, storlet.ErrBreakerOpen)
}

// IsFilterFailure reports whether err is a filter execution failure (either
// a local *storlet.FilterError or the decoded mid-stream trailer error).
func IsFilterFailure(err error) bool {
	if errors.Is(err, ErrFilterFailed) {
		return true
	}
	var fe *storlet.FilterError
	return errors.As(err, &fe)
}

// PushdownUnavailableReason renders the machine-readable reason token for
// the HeaderPushdownUnavailable header.
func PushdownUnavailableReason(err error) string {
	switch {
	case errors.Is(err, storlet.ErrNotDeployed):
		return "not-deployed"
	case errors.Is(err, storlet.ErrBreakerOpen):
		return "breaker-open"
	case errors.Is(err, storlet.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrPushdownDisabled):
		return "disabled"
	case IsFilterFailure(err):
		return "filter-failed"
	default:
		return "unavailable"
	}
}

// permanentRefusal reports whether resp refuses a pushdown for a reason no
// retry changes: the filter is not deployed, or the container's policy
// forbids pushdown. The connector falls back at once instead.
func permanentRefusal(resp *http.Response) bool {
	reason := resp.Header.Get(HeaderPushdownUnavailable)
	return resp.StatusCode == http.StatusServiceUnavailable && (reason == "not-deployed" || reason == "disabled")
}

// pushdownUnavailableErr rebuilds the typed error from the wire reason.
func pushdownUnavailableErr(reason string, status int, msg string) error {
	return fmt.Errorf("%w (%s): http %d: %s", ErrPushdownUnavailable, reason, status, msg)
}
