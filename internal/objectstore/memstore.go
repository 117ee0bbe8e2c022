package objectstore

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// replica is one stored version: its metadata and, in a MemStore, its
// bytes (a DiskStore keeps the bytes in the replica's file).
type replica struct {
	info ObjectInfo
	data []byte
}

// replicaIndex is the index both node stores keep: the replicas by object
// path, behind one lock. It implements Store's Head and List for both.
type replicaIndex struct {
	mu       sync.RWMutex
	replicas map[string]replica
}

// Head implements Store.
func (x *replicaIndex) Head(_ context.Context, path string) (ObjectInfo, error) {
	x.mu.RLock()
	defer x.mu.RUnlock()
	r, ok := x.replicas[path]
	if !ok {
		return ObjectInfo{}, ErrNotFound
	}
	return r.info, nil
}

// List implements Store: the stored objects whose path starts with prefix,
// sorted by path.
func (x *replicaIndex) List(_ context.Context, prefix string) []ObjectInfo {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []ObjectInfo
	for p, r := range x.replicas {
		if strings.HasPrefix(p, prefix) {
			out = append(out, r.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path() < out[j].Path() })
	return out
}

// MemStore is the storage engine of one object server: an in-memory blob
// map keyed by object path. It stands in for the XFS-on-disk layout of a
// Swift object server; at the scales this repository runs (MBs–GBs), memory
// is the honest equivalent of the testbed's RAID10 arrays.
type MemStore struct {
	replicaIndex
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{replicaIndex{replicas: make(map[string]replica)}}
}

// Put stores the full object read from r.
func (s *MemStore) Put(ctx context.Context, info ObjectInfo, r io.Reader) (ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return ObjectInfo{}, fmt.Errorf("memstore: put %s: %w", info.Path(), err)
	}
	var buf bytes.Buffer
	stamped, err := copyStamped(&buf, r, info)
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("memstore: put %s: %w", info.Path(), err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.replicas[stamped.Path()] = replica{info: stamped, data: buf.Bytes()}
	return stamped, nil
}

// Get returns a reader over bytes [start, end) of the object. end <= 0 means
// the object's end. The reader never blocks and needs no cleanup beyond
// Close.
func (s *MemStore) Get(ctx context.Context, path string, start, end int64) (io.ReadCloser, ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, ObjectInfo{}, fmt.Errorf("memstore: get %s: %w", path, err)
	}
	s.mu.RLock()
	r, ok := s.replicas[path]
	s.mu.RUnlock()
	if !ok {
		return nil, ObjectInfo{}, ErrNotFound
	}
	end, err := clampRange(start, end, int64(len(r.data)))
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	return io.NopCloser(bytes.NewReader(r.data[start:end])), r.info, nil
}

// Delete removes the object. Deleting a missing object is not an error
// (Swift DELETE is idempotent at the object server).
func (s *MemStore) Delete(_ context.Context, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.replicas, path)
}
