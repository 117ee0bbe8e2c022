package objectstore

import (
	"fmt"
	"strings"
)

// writeQuorum is the store's one write-quorum rule, shared by the PUT path
// and the reconciler's handoff check: how many of n placement replicas must
// hold a version for it to count as committed. A configured quorum wins,
// capped at n; otherwise a majority.
func writeQuorum(n, configured int) int {
	q := configured
	if q <= 0 {
		q = n/2 + 1
	}
	if q > n {
		q = n
	}
	return q
}

// ReplicationError is the typed failure of a PUT that could not reach its
// write quorum. It wraps the per-node causes, so callers can both detect
// the category (errors.Is(err, ErrUnderReplicated)) and inspect what
// happened on each replica (errors.As to *ReplicationError, or errors.Is
// against a node-level sentinel like ErrNodeDown through the Unwrap tree).
type ReplicationError struct {
	// Path is the ring key of the object.
	Path string
	// Want is the write quorum; Got is how many replicas succeeded;
	// Replicas is the ring's replica count.
	Want, Got, Replicas int
	// Causes holds one wrapped error per failed replica write.
	Causes []error
}

// Error implements error.
func (e *ReplicationError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "objectstore: %s under-replicated: %d/%d replicas written (quorum %d)",
		e.Path, e.Got, e.Replicas, e.Want)
	for _, c := range e.Causes {
		b.WriteString("; ")
		b.WriteString(c.Error())
	}
	return b.String()
}

// Is reports category membership so errors.Is(err, ErrUnderReplicated)
// holds without string matching.
func (e *ReplicationError) Is(target error) bool { return target == ErrUnderReplicated }

// Unwrap exposes the per-node causes to errors.Is/As traversal.
func (e *ReplicationError) Unwrap() []error { return e.Causes }
