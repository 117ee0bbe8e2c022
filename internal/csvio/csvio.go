// Package csvio provides the byte-range-aware CSV record handling shared by
// the compute-side data source and the storage-side pushdown filter.
//
// Spark tasks operate on byte ranges of objects (paper §V: the Storlet WSGI
// middleware was extended "to support running Storlets at storage nodes for
// byte ranges"). A byte range almost never starts or ends on a record
// boundary, so both sides follow Hadoop input-split semantics:
//
//   - a range starting at offset > 0 skips forward to the first record that
//     *begins* inside the range (i.e. discards bytes up to and including the
//     first newline), and
//   - a record whose start offset is at or before the range end is processed
//     to completion, reading past the end if needed (a record starting
//     exactly at the end boundary belongs to this range, because the next
//     range's alignment skip discards it).
//
// Applied to every partition of an object, these rules yield exactly-once
// processing of every record regardless of how the object is partitioned —
// a property the package's tests check exhaustively.
package csvio

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"sync"
)

// DefaultDelimiter is the field separator used when none is configured.
const DefaultDelimiter = ','

// RangeReader yields complete records from a byte range of a record stream.
//
// The underlying reader r must be positioned at absolute offset start of the
// object, and should supply bytes beyond end (the record straddling the end
// boundary needs them); io.EOF from r simply terminates the stream.
//
// Reading is allocation-free per record: Next returns slices into the
// internal buffer (or into a reused spill buffer for records longer than the
// buffer), which is why they are only valid until the following call.
type RangeReader struct {
	br  *bufio.Reader
	src boundaryReader
	// spill accumulates records longer than the buffered reader's window;
	// it is reused across records and across Reset.
	spill   []byte
	pos     int64 // absolute offset of the next byte to read
	end     int64 // absolute end of the range (exclusive)
	aligned bool
	err     error
}

// NewRangeReader builds a RangeReader for the range [start, end) of the
// stream r (which must already be positioned at start). If start is 0 the
// first record is not skipped.
//
// r must be able to supply bytes beyond end — the record straddling the end
// boundary is read to completion. To keep that overrun small when r is a
// network stream, reading switches to small increments once the boundary is
// crossed.
func NewRangeReader(r io.Reader, start, end int64) *RangeReader {
	rr := &RangeReader{}
	rr.Reset(r, start, end)
	return rr
}

// Reset repoints the reader at the range [start, end) of a new stream,
// reusing the internal buffers. Equivalent to NewRangeReader but
// allocation-free after the first use.
func (r *RangeReader) Reset(in io.Reader, start, end int64) {
	r.src = boundaryReader{r: in, remaining: end - start}
	if r.br == nil {
		r.br = bufio.NewReaderSize(&r.src, 64<<10)
	} else {
		r.br.Reset(&r.src)
	}
	r.pos, r.end = start, end
	r.aligned = start == 0
	r.err = nil
}

// rangeReaderPool backs Acquire/Release: the 64 KB read buffer is the
// dominant per-invocation allocation on the pushdown hot path, so the
// storage-side filters recycle whole readers across requests.
var rangeReaderPool = sync.Pool{New: func() any { return new(RangeReader) }}

// AcquireRangeReader returns a pooled RangeReader reset to the range
// [start, end) of r. Pair with Release once the stream is consumed.
func AcquireRangeReader(r io.Reader, start, end int64) *RangeReader {
	rr := rangeReaderPool.Get().(*RangeReader)
	rr.Reset(r, start, end)
	return rr
}

// Release drops the reference to the underlying stream and returns the
// reader to the pool. The RangeReader must not be used afterwards.
func (r *RangeReader) Release() {
	r.src.r = nil
	rangeReaderPool.Put(r)
}

// boundaryReader reads freely inside the range and throttles to small chunks
// beyond it, so finishing a straddling record pulls only a few hundred extra
// bytes rather than a buffer-sized block.
type boundaryReader struct {
	r         io.Reader
	remaining int64
}

func (b *boundaryReader) Read(p []byte) (int, error) {
	const slackChunk = 256
	if b.remaining <= 0 {
		if len(p) > slackChunk {
			p = p[:slackChunk]
		}
		return b.r.Read(p)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.r.Read(p)
	b.remaining -= int64(n)
	return n, err
}

// Next returns the next complete record without its trailing newline. The
// returned slice is only valid until the next call. Returns io.EOF when the
// range is exhausted.
//
//scoop:hotpath
func (r *RangeReader) Next() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	if !r.aligned {
		// Discard the partial record the previous range finishes.
		for {
			skipped, err := r.br.ReadSlice('\n')
			r.pos += int64(len(skipped))
			if err == nil {
				break
			}
			if errors.Is(err, bufio.ErrBufferFull) {
				continue
			}
			r.err = io.EOF
			if !errors.Is(err, io.EOF) {
				r.err = err
			}
			return nil, r.err
		}
		r.aligned = true
	}
	for {
		// Hadoop split rule: a record is owned by the range its start offset
		// falls in, *including* a record starting exactly at end — the next
		// range's alignment skip discards that one, so this range must read
		// it (pos <= end, not pos < end).
		if r.pos > r.end {
			r.err = io.EOF
			return nil, r.err
		}
		line, err := r.readLine()
		if err != nil {
			r.err = err
			return nil, err
		}
		if len(line) == 0 {
			continue // blank line, not a record
		}
		return line, nil
	}
}

// readLine reads one record, updating pos, and strips \n and \r\n. The
// common case is a zero-copy ReadSlice into the buffered reader's window;
// records spanning a buffer boundary spill into the reused spill buffer.
func (r *RangeReader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		r.spill = append(r.spill[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = r.br.ReadSlice('\n')
			r.spill = append(r.spill, line...)
		}
		line = r.spill
	}
	r.pos += int64(len(line))
	if len(line) == 0 {
		if err == nil {
			err = io.EOF
		}
		return nil, err
	}
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	line = bytes.TrimRight(line, "\r\n")
	return line, nil
}

// FieldScanner splits records into fields with zero steady-state
// allocations: the field-slice header and the unquoting scratch buffer are
// owned by the scanner and reused across records. Quoted fields ("a,b" style,
// with "" escaping) are supported; the zero value is ready to use.
type FieldScanner struct {
	fields  [][]byte
	scratch []byte
}

// Scan splits one record into fields. The returned fields alias either the
// record (unquoted fields) or the scanner's scratch buffer (quoted fields);
// both are only valid until the next Scan.
//
//scoop:hotpath
func (s *FieldScanner) Scan(record []byte, delim byte) [][]byte {
	s.fields = s.fields[:0]
	if bytes.IndexByte(record, '"') >= 0 {
		// Quoted fields unescape into scratch. Sizing it to the whole record
		// up front keeps the emitted sub-slices stable — unescaped content
		// never exceeds the record length, so scratch cannot reallocate
		// mid-record.
		if cap(s.scratch) < len(record) {
			s.scratch = make([]byte, 0, len(record))
		}
		s.scratch = s.scratch[:0]
	}
	for {
		if len(record) > 0 && record[0] == '"' {
			start := len(s.scratch)
			i := 1
			for i < len(record) {
				if record[i] == '"' {
					if i+1 < len(record) && record[i+1] == '"' {
						s.scratch = append(s.scratch, '"')
						i += 2
						continue
					}
					i++
					break
				}
				s.scratch = append(s.scratch, record[i])
				i++
			}
			s.fields = append(s.fields, s.scratch[start:len(s.scratch):len(s.scratch)])
			if i < len(record) && record[i] == delim {
				record = record[i+1:]
				continue
			}
			return s.fields
		}
		i := bytes.IndexByte(record, delim)
		if i < 0 {
			s.fields = append(s.fields, record)
			return s.fields
		}
		s.fields = append(s.fields, record[:i])
		record = record[i+1:]
	}
}

// NeedsQuoting reports whether a field must be quoted when written.
func NeedsQuoting(field []byte, delim byte) bool {
	return bytes.IndexByte(field, delim) >= 0 ||
		bytes.IndexByte(field, '"') >= 0 ||
		bytes.IndexByte(field, '\n') >= 0 ||
		bytes.IndexByte(field, '\r') >= 0
}

// writerPool recycles the buffered writer WriteRecord interposes when handed
// a plain io.Writer, so record emission stays allocation-free in steady state.
var writerPool = sync.Pool{New: func() any { return bufio.NewWriterSize(io.Discard, 4<<10) }}

// WriteRecord writes fields as one CSV record with a trailing newline.
// Callers passing a *bufio.Writer keep control of flushing; any other writer
// goes through a pooled buffer that is flushed before return.
//
//scoop:hotpath
func WriteRecord(w io.Writer, fields [][]byte, delim byte) error {
	if bw, ok := w.(*bufio.Writer); ok {
		return writeRecord(bw, fields, delim)
	}
	bw := writerPool.Get().(*bufio.Writer)
	bw.Reset(w)
	err := writeRecord(bw, fields, delim)
	if err == nil {
		err = bw.Flush()
	}
	bw.Reset(io.Discard) // drop the caller's writer before pooling
	writerPool.Put(bw)
	return err
}

func writeRecord(bw *bufio.Writer, fields [][]byte, delim byte) error {
	if len(fields) == 1 && len(fields[0]) == 0 {
		// A lone empty field would be a blank line, which readers skip as
		// "not a record"; quoted, it reads back as one empty field.
		_, err := bw.WriteString("\"\"\n")
		return err
	}
	for i, f := range fields {
		if i > 0 {
			if err := bw.WriteByte(delim); err != nil {
				return err
			}
		}
		if NeedsQuoting(f, delim) {
			if err := bw.WriteByte('"'); err != nil {
				return err
			}
			for _, c := range f {
				if c == '"' {
					if _, err := bw.WriteString(`""`); err != nil {
						return err
					}
					continue
				}
				if err := bw.WriteByte(c); err != nil {
					return err
				}
			}
			if err := bw.WriteByte('"'); err != nil {
				return err
			}
			continue
		}
		if _, err := bw.Write(f); err != nil {
			return err
		}
	}
	return bw.WriteByte('\n')
}

// Partition describes one byte range of an object, in absolute offsets.
type Partition struct {
	Start int64
	End   int64 // exclusive
}

// Partitions splits [0, size) into chunks of at most chunkSize bytes — the
// "partition discovery" step the connector performs before a query runs.
func Partitions(size, chunkSize int64) []Partition {
	if size <= 0 {
		return nil
	}
	if chunkSize <= 0 {
		return []Partition{{0, size}}
	}
	var out []Partition
	for off := int64(0); off < size; off += chunkSize {
		end := off + chunkSize
		if end > size {
			end = size
		}
		out = append(out, Partition{Start: off, End: end})
	}
	return out
}
