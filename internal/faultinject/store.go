package faultinject

import (
	"context"
	"fmt"
	"io"

	"scoop/internal/clock"
	"scoop/internal/objectstore"
)

// Store wraps a node's storage engine with scheduled fault injection — the
// storage-side seam, where a disk or an object server process fails rather
// than the wire. Wire it in through ClusterConfig.StoreWrap so every node
// gets its own schedule (per-node schedules keep the replay deterministic
// even when proxies fan out to nodes concurrently).
type Store struct {
	// Inner is the real storage engine.
	Inner objectstore.Store
	// Schedule scripts this node's faults; nil injects nothing.
	Schedule *Schedule
	// Node names the wrapped node in injected errors.
	Node string
}

var _ objectstore.Store = (*Store)(nil)

// fail builds the injected error for non-body faults, or nil when the fault
// only affects the body stream.
func (s *Store) fail(ctx context.Context, op Op, f *Fault) error {
	if f == nil {
		return nil
	}
	switch f.Kind {
	case ConnError, Status, Blackout:
		// At the store seam there is no HTTP status to synthesize; a
		// Status fault degrades to a generic server-side failure.
		return fmt.Errorf("%w: node %s %s failed (%s)", ErrInjected, s.Node, op, f.Kind)
	case Latency:
		if err := clock.Sleep(ctx, f.Delay); err != nil {
			return fmt.Errorf("%w: node %s latency aborted: %w", ErrInjected, s.Node, err)
		}
	}
	return nil
}

// Put implements objectstore.Store. A Truncate fault cuts the upload stream
// after AfterBytes, modelling a client or proxy dying mid-upload.
func (s *Store) Put(ctx context.Context, info objectstore.ObjectInfo, r io.Reader) (objectstore.ObjectInfo, error) {
	f := s.Schedule.Next(OpPut, info.Path())
	if err := s.fail(ctx, OpPut, f); err != nil {
		return objectstore.ObjectInfo{}, err
	}
	if f != nil && f.Kind == Truncate {
		r = &truncatedBody{rc: io.NopCloser(r), remaining: f.AfterBytes}
	}
	return s.Inner.Put(ctx, info, r)
}

// Get implements objectstore.Store. A Truncate fault cuts the returned
// stream after AfterBytes, modelling a disk error mid-read.
func (s *Store) Get(ctx context.Context, path string, start, end int64) (io.ReadCloser, objectstore.ObjectInfo, error) {
	f := s.Schedule.Next(OpGet, path)
	if err := s.fail(ctx, OpGet, f); err != nil {
		return nil, objectstore.ObjectInfo{}, err
	}
	rc, info, err := s.Inner.Get(ctx, path, start, end)
	if err != nil {
		return nil, objectstore.ObjectInfo{}, err
	}
	if f != nil && f.Kind == Truncate {
		rc = &truncatedBody{rc: rc, remaining: f.AfterBytes}
	}
	return rc, info, nil
}

// Head implements objectstore.Store.
func (s *Store) Head(ctx context.Context, path string) (objectstore.ObjectInfo, error) {
	if err := s.fail(ctx, OpHead, s.Schedule.Next(OpHead, path)); err != nil {
		return objectstore.ObjectInfo{}, err
	}
	return s.Inner.Head(ctx, path)
}

// Delete implements objectstore.Store. The Store interface's Delete cannot
// report failure (Swift object-server DELETE is idempotent), so injected
// faults here only burn a sequence slot.
func (s *Store) Delete(ctx context.Context, path string) {
	s.Schedule.Next(OpDelete, path)
	s.Inner.Delete(ctx, path)
}

// List implements objectstore.Store.
func (s *Store) List(ctx context.Context, prefix string) []objectstore.ObjectInfo {
	s.Schedule.Next(OpList, prefix)
	return s.Inner.List(ctx, prefix)
}
