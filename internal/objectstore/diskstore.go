package objectstore

import (
	"context"
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Store is the storage engine of one object server. MemStore (tests,
// benchmarks) and DiskStore (scoopd persistence) implement it. Data
// operations take a context so cancelled requests stop hitting the disk.
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

// DiskStore persists objects under a directory, one file per replica, as a
// Swift object server does (there the metadata sits in xattrs), in a flat
// namespace of hex-named files. A file holds the object's bytes from offset
// 0, then a footer: the ObjectInfo as JSON, the JSON's length (4 bytes,
// big-endian) and footerMagic. Put writes a put-* temporary and renames it
// over the replica's file: one rename commits bytes and metadata together.
// Put renames under the index's write lock and Get opens the file under its
// read lock, so a Get reads the bytes of the version whose info it returns.
type DiskStore struct {
	replicaIndex // replicas carry no data: the bytes are on disk
	root         string
}

// footerMagic ends every replica file; footerTail is the fixed end of a
// footer, the JSON length and the magic.
const (
	footerMagic = "SCO1"
	footerTail  = 8
)

// NewDiskStore opens (creating if needed) a disk-backed store rooted at
// dir, and rebuilds its index from the footers of the replica files there;
// the context bounds the rebuild. A file whose footer does not check out
// (cut short) is skipped, and put-* temporaries left by a killed Put are
// removed. A replica file whose name is not the one its recorded path maps
// to, or any .meta sidecar, means a directory in an earlier layout: that
// fails the open with the file's name.
func NewDiskStore(ctx context.Context, dir string) (*DiskStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	s := &DiskStore{replicaIndex: replicaIndex{replicas: make(map[string]replica)}, root: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	for _, e := range entries {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("diskstore: index rebuild: %w", err)
		}
		name := filepath.Join(dir, e.Name())
		switch {
		case e.IsDir():
		case strings.HasSuffix(e.Name(), ".meta"):
			return nil, fmt.Errorf("diskstore: %s is a metadata sidecar: directory written in an older two-file layout", name)
		case strings.HasPrefix(e.Name(), "put-"):
			if err := os.Remove(name); err != nil {
				return nil, fmt.Errorf("diskstore: leftover temporary: %w", err)
			}
		case strings.HasSuffix(e.Name(), ".obj"):
			info, err := readFooter(name)
			if err != nil {
				continue // unreadable or cut short: not a committed version
			}
			if want := escape(info.Path()) + ".obj"; e.Name() != want {
				return nil, fmt.Errorf("diskstore: %s records %s, whose file is %s: directory written in an older file-name layout",
					name, info.Path(), want)
			}
			s.replicas[info.Path()] = replica{info: info}
		}
	}
	return s, nil
}

// readFooter returns the ObjectInfo recorded in a replica file's footer,
// checking the magic, the JSON length and that the recorded size is the
// file's size less the footer.
func readFooter(name string) (ObjectInfo, error) {
	f, err := os.Open(name)
	if err != nil {
		return ObjectInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return ObjectInfo{}, err
	}
	var tail [footerTail]byte
	if _, err := f.ReadAt(tail[:], st.Size()-footerTail); err != nil || string(tail[4:]) != footerMagic {
		return ObjectInfo{}, fmt.Errorf("diskstore: %s: no footer", name)
	}
	n := int64(binary.BigEndian.Uint32(tail[:4]))
	size := st.Size() - footerTail - n
	if size < 0 {
		return ObjectInfo{}, fmt.Errorf("diskstore: %s: footer longer than the file", name)
	}
	meta := make([]byte, n)
	if _, err := f.ReadAt(meta, size); err != nil {
		return ObjectInfo{}, err
	}
	var info ObjectInfo
	if err := json.Unmarshal(meta, &info); err != nil || info.Size != size {
		return ObjectInfo{}, fmt.Errorf("diskstore: %s: footer does not match the %d bytes before it", name, size)
	}
	return info, nil
}

// escape maps an object path to the base name of its replica file: the
// path in hex, so two paths never share a file and no name holds a
// separator or a dot. A path longer than 125 bytes overruns the usual
// 255-byte file-name limit and fails its Put.
func escape(path string) string {
	return hex.EncodeToString([]byte(path))
}

func (s *DiskStore) file(path string) string {
	return filepath.Join(s.root, escape(path)+".obj")
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
	if err == nil {
		err = writeFooter(tmp, info)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return ObjectInfo{}, fmt.Errorf("diskstore: put %s: %w", path, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp.Name(), s.file(path)); err != nil {
		return ObjectInfo{}, fmt.Errorf("diskstore: put %s: %w", path, err)
	}
	s.replicas[path] = replica{info: info}
	return info, nil
}

// writeFooter appends info's footer to a replica file.
func writeFooter(w io.Writer, info ObjectInfo) error {
	meta, err := json.Marshal(info)
	if err != nil {
		return err
	}
	meta = binary.BigEndian.AppendUint32(meta, uint32(len(meta)))
	_, err = w.Write(append(meta, footerMagic...))
	return err
}

// Get implements Store.
func (s *DiskStore) Get(ctx context.Context, path string, start, end int64) (io.ReadCloser, ObjectInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, ObjectInfo{}, fmt.Errorf("diskstore: get %s: %w", path, err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	r, ok := s.replicas[path]
	if !ok {
		return nil, ObjectInfo{}, ErrNotFound
	}
	end, err := clampRange(start, end, r.info.Size)
	if err != nil {
		return nil, ObjectInfo{}, err
	}
	f, err := os.Open(s.file(path))
	if err != nil {
		return nil, ObjectInfo{}, fmt.Errorf("diskstore: get %s: %w", path, err)
	}
	if _, err := f.Seek(start, io.SeekStart); err != nil {
		f.Close()
		return nil, ObjectInfo{}, err
	}
	return struct {
		io.Reader
		io.Closer
	}{io.LimitReader(f, end-start), f}, r.info, nil
}

// Delete implements Store.
func (s *DiskStore) Delete(_ context.Context, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.replicas, path)
	os.Remove(s.file(path))
}
