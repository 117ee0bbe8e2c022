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

// blob is one stored replica.
type blob struct {
	data []byte
	info ObjectInfo
}

// MemStore is the storage engine of one object server: an in-memory blob
// map keyed by object path. It stands in for the XFS-on-disk layout of a
// Swift object server; at the scales this repository runs (MBs–GBs), memory
// is the honest equivalent of the testbed's RAID10 arrays.
type MemStore struct {
	mu    sync.RWMutex
	blobs map[string]*blob
}

// NewMemStore returns an empty store.
func NewMemStore() *MemStore {
	return &MemStore{blobs: make(map[string]*blob)}
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
	s.blobs[stamped.Path()] = &blob{data: buf.Bytes(), info: stamped}
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
	b, ok := s.blobs[path]
	s.mu.RUnlock()
	if !ok {
		return nil, ObjectInfo{}, ErrNotFound
	}
	end, err := clampRange(start, end, int64(len(b.data)))
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	return io.NopCloser(bytes.NewReader(b.data[start:end])), b.info, nil
}

// Head returns object metadata.
func (s *MemStore) Head(_ context.Context, path string) (ObjectInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, ok := s.blobs[path]
	if !ok {
		return ObjectInfo{}, ErrNotFound
	}
	return b.info, nil
}

// Delete removes the object. Deleting a missing object is not an error
// (Swift DELETE is idempotent at the object server).
func (s *MemStore) Delete(_ context.Context, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.blobs, path)
}

// List returns stored objects whose path starts with prefix, sorted by path.
func (s *MemStore) List(_ context.Context, prefix string) []ObjectInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ObjectInfo
	for p, b := range s.blobs {
		if strings.HasPrefix(p, prefix) {
			out = append(out, b.info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path() < out[j].Path() })
	return out
}

// Bytes returns the total stored bytes (for capacity accounting).
func (s *MemStore) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, b := range s.blobs {
		n += int64(len(b.data))
	}
	return n
}
