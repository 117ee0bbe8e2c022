package objectstore

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Store is the storage engine of one object server. MemStore (tests,
// benchmarks) and DiskStore (scoopd persistence) implement it. Data
// operations take a context so cancelled requests stop hitting the disk;
// Bytes is a pure counter read and stays context-free.
type Store interface {
	// Put stores the full object read from r, returning completed metadata.
	Put(ctx context.Context, info ObjectInfo, r io.Reader) (ObjectInfo, error)
	// Get returns a reader over bytes [start, end) of the object; end <= 0
	// means the object's end.
	Get(ctx context.Context, path string, start, end int64) (io.ReadCloser, ObjectInfo, error)
	// Head returns object metadata.
	Head(ctx context.Context, path string) (ObjectInfo, error)
	// Delete removes the object (idempotent).
	Delete(ctx context.Context, path string)
	// List returns stored objects whose path starts with prefix, sorted.
	List(ctx context.Context, prefix string) []ObjectInfo
	// Bytes returns total stored payload bytes.
	Bytes() int64
}

// Interface conformance.
var (
	_ Store = (*MemStore)(nil)
	_ Store = (*DiskStore)(nil)
)

// copyStamped copies an object's bytes from r to w and returns info
// completed the same way by every Store: the size, the md5 of the bytes as
// ETag, the creation time and a non-nil Meta.
func copyStamped(w io.Writer, r io.Reader, info ObjectInfo) (ObjectInfo, error) {
	h := md5.New()
	n, err := io.Copy(io.MultiWriter(w, h), r)
	if err != nil {
		return ObjectInfo{}, err
	}
	info.Size = n
	info.ETag = hex.EncodeToString(h.Sum(nil))
	info.Created = time.Now()
	if info.Meta == nil {
		info.Meta = map[string]string{}
	}
	return info, nil
}

// clampRange resolves the end of a Get of bytes [start, end) from an object
// of the given size: end <= 0 or past the size means the size, and a start
// outside [0, end] is ErrBadRange.
func clampRange(start, end, size int64) (int64, error) {
	if end <= 0 || end > size {
		end = size
	}
	if start < 0 || start > size || start > end {
		return 0, fmt.Errorf("%w: [%d,%d) of %d", ErrBadRange, start, end, size)
	}
	return end, nil
}

// DiskStore persists objects under a directory, one data file plus one
// metadata sidecar per object — the moral equivalent of a Swift object
// server's on-disk layout (hash-named files under partition directories),
// simplified to a flat namespace of hex-named files.
type DiskStore struct {
	root string
	mu   sync.RWMutex
	// index caches metadata by object path.
	index map[string]ObjectInfo
}

// NewDiskStore opens (creating if needed) a disk-backed store rooted at
// dir, and rebuilds its index from the sidecar files found there. The
// context bounds the index rebuild, which scans one sidecar per object. A
// sidecar whose file name is not the one its recorded path maps to (the
// earlier, colliding layout) fails the open with that file's name, rather
// than index a data file that may hold another object's bytes.
func NewDiskStore(ctx context.Context, dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &DiskStore{root: dir, index: make(map[string]ObjectInfo)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("diskstore: index rebuild: %w", err)
		}
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".meta") {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue // unreadable sidecar: skip, the data file is orphaned
		}
		var info ObjectInfo
		if err := json.Unmarshal(raw, &info); err != nil {
			continue
		}
		if want := escape(info.Path()) + ".meta"; e.Name() != want {
			return nil, fmt.Errorf("diskstore: %s records %s, whose sidecar is %s: directory written in an older file-name layout",
				filepath.Join(dir, e.Name()), info.Path(), want)
		}
		s.index[info.Path()] = info
	}
	return s, nil
}

// escape maps an object path to the base name of its data and sidecar
// files: the path in hex, so two paths never share a file and no name holds
// a separator or a dot. A path longer than 125 bytes overruns the usual
// 255-byte file-name limit and fails its Put.
func escape(path string) string {
	return hex.EncodeToString([]byte(path))
}

func (s *DiskStore) dataFile(path string) string {
	return filepath.Join(s.root, escape(path)+".data")
}

func (s *DiskStore) metaFile(path string) string {
	return filepath.Join(s.root, escape(path)+".meta")
}

// Put implements Store.
func (s *DiskStore) Put(ctx context.Context, info ObjectInfo, r io.Reader) (ObjectInfo, error) {
	path := info.Path()
	if err := ctx.Err(); err != nil {
		return ObjectInfo{}, fmt.Errorf("diskstore: put %s: %w", path, err)
	}
	tmp, err := os.CreateTemp(s.root, "put-*")
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("diskstore: put %s: %w", path, err)
	}
	defer os.Remove(tmp.Name())
	info, err = copyStamped(tmp, r, info)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("diskstore: put %s: %w", path, err)
	}
	meta, err := json.Marshal(info)
	if err != nil {
		return ObjectInfo{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp.Name(), s.dataFile(path)); err != nil {
		return ObjectInfo{}, fmt.Errorf("diskstore: put %s: %w", path, err)
	}
	if err := os.WriteFile(s.metaFile(path), meta, 0o644); err != nil {
		return ObjectInfo{}, fmt.Errorf("diskstore: put %s: %w", path, err)
	}
	s.index[path] = info
	return info, nil
}

// Get implements Store.
func (s *DiskStore) Get(ctx context.Context, path string, start, end int64) (io.ReadCloser, ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, ObjectInfo{}, fmt.Errorf("diskstore: get %s: %w", path, err)
	}
	s.mu.RLock()
	info, ok := s.index[path]
	s.mu.RUnlock()
	if !ok {
		return nil, ObjectInfo{}, ErrNotFound
	}
	end, err := clampRange(start, end, info.Size)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	f, err := os.Open(s.dataFile(path))
	if err != nil {
		return nil, ObjectInfo{}, fmt.Errorf("diskstore: get %s: %w", path, err)
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		f.Close()
		return nil, ObjectInfo{}, err
	}
	return &sectionCloser{r: io.LimitReader(f, end-start), f: f}, info, nil
}

type sectionCloser struct {
	r io.Reader
	f *os.File
}

func (s *sectionCloser) Read(p []byte) (int, error) { return s.r.Read(p) }
func (s *sectionCloser) Close() error               { return s.f.Close() }

// Head implements Store.
func (s *DiskStore) Head(_ context.Context, path string) (ObjectInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	info, ok := s.index[path]
	if !ok {
		return ObjectInfo{}, ErrNotFound
	}
	return info, nil
}

// Delete implements Store.
func (s *DiskStore) Delete(_ context.Context, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.index, path)
	os.Remove(s.dataFile(path))
	os.Remove(s.metaFile(path))
}

// List implements Store.
func (s *DiskStore) List(_ context.Context, prefix string) []ObjectInfo {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ObjectInfo
	for p, info := range s.index {
		if strings.HasPrefix(p, prefix) {
			out = append(out, info)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path() < out[j].Path() })
	return out
}

// Bytes implements Store.
func (s *DiskStore) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, info := range s.index {
		n += info.Size
	}
	return n
}
