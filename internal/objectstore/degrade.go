package objectstore

// Degradation-ladder signaling (DESIGN §8). storlet.Failures is the one
// table of failure classes; the handler answers a failed request with its
// class's status and reason token, the client decodes the token back to the
// class's sentinel, so storlet.Classify answers alike on both sides of the
// link. A pushdown failure has two shapes:
//
//   - pre-first-byte: the filter could not start (not deployed, breaker
//     open, engine overloaded, container policy, bad task) or failed before
//     its first byte. The handler answers with the class's status and the
//     reason in HeaderPushdownUnavailable, BEFORE any body byte.
//   - mid-stream: the filter failed after the 200/206 was on the wire.
//     The handler appends the error to the HeaderFilterError trailer so
//     the client can tell truncation from success; the query reads the
//     split again the baseline way.

// Headers used by the degradation ladder.
const (
	// HeaderPushdownUnavailable carries the reason token of a pushdown
	// request refused or failed pre-first-byte.
	HeaderPushdownUnavailable = "X-Scoop-Pushdown-Unavailable"
	// HeaderFilterError is the HTTP trailer carrying a mid-stream filter
	// failure on an otherwise-started pushdown response.
	HeaderFilterError = "X-Scoop-Filter-Error"
)
