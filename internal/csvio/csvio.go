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
// reader's window (or into a reused spill buffer for records longer than the
// window), which is why they are only valid until the following call.
type RangeReader struct {
	src boundaryReader
	// buf is the window over the stream: buf[head:tail] is read from src and
	// not yet handed out. srcErr is src's error once it has returned one.
	buf        []byte
	head, tail int
	srcErr     error
	// spill accumulates records longer than the window; it is reused across
	// records and across Reset.
	spill   []byte
	pos     int64 // absolute offset of the next byte to hand out
	end     int64 // absolute end of the range (exclusive)
	aligned bool
	err     error
}

// windowSize is the RangeReader's window: a record longer than this spills.
const windowSize = 64 << 10

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
	if r.buf == nil {
		r.buf = make([]byte, windowSize)
	}
	r.head, r.tail, r.srcErr = 0, 0, nil
	r.pos, r.end = start, end
	r.aligned = start == 0
	r.err = nil
}

// rangeReaderPool backs Acquire/Release: the 64 KB window is the dominant
// per-invocation allocation on the record path, so the storage-side filters
// and the compute-side iterator recycle whole readers across requests.
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
// bytes rather than a window-sized block.
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
		// Discard the partial record the previous range finishes: the
		// stream up to and including its first newline.
		skipped, err := r.readLine()
		if err == nil && (len(skipped) == 0 || skipped[len(skipped)-1] != '\n') {
			err = io.EOF // the stream ended inside that record
		}
		if err != nil {
			r.err = err
			return nil, err
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
		for len(line) > 0 && (line[len(line)-1] == '\n' || line[len(line)-1] == '\r') {
			line = line[:len(line)-1]
		}
		if len(line) == 0 {
			continue // blank line, not a record
		}
		return line, nil
	}
}

// readLine hands out the next line with its newline (the stream's last line
// may have none) and advances pos past it. The common case is one IndexByte
// over the window; refilling it, and a line longer than it, take readMore.
// At the end of the stream it returns io.EOF, or src's error.
func (r *RangeReader) readLine() ([]byte, error) {
	if i := bytes.IndexByte(r.buf[r.head:r.tail], '\n'); i >= 0 {
		line := r.buf[r.head : r.head+i+1]
		r.head += i + 1
		r.pos += int64(i + 1)
		return line, nil
	}
	return r.readMore()
}

// readMore is readLine when the window holds no newline: it reads from src
// until one arrives or the stream ends, moving the unread bytes to the front
// of the window and spilling a window full of a single line.
func (r *RangeReader) readMore() ([]byte, error) {
	spilled := false
	for empty := 0; ; {
		if r.srcErr != nil {
			line := r.buf[r.head:r.tail]
			if spilled {
				r.spill = append(r.spill, line...)
				line = r.spill
			}
			r.head = r.tail
			if len(line) == 0 || !errors.Is(r.srcErr, io.EOF) {
				return nil, r.srcErr
			}
			r.pos += int64(len(line))
			return line, nil
		}
		if r.head > 0 {
			r.tail = copy(r.buf, r.buf[r.head:r.tail])
			r.head = 0
		}
		if r.tail == len(r.buf) {
			if !spilled {
				r.spill = r.spill[:0]
			}
			r.spill = append(r.spill, r.buf...)
			r.tail, spilled = 0, true
		}
		// One read fills the window for many records: it is not on the
		// per-record path.
		//scoop:cold
		n, err := r.src.Read(r.buf[r.tail:])
		if err != nil {
			r.srcErr = err
		} else if n == 0 {
			if empty++; empty == 100 {
				r.srcErr = io.ErrNoProgress // as bufio does for a reader stuck at (0, nil)
			}
			continue
		}
		scanned := r.tail
		r.tail += n
		if i := bytes.IndexByte(r.buf[scanned:r.tail], '\n'); i >= 0 {
			line := r.buf[:scanned+i+1]
			r.head = scanned + i + 1
			if spilled {
				r.spill = append(r.spill, line...)
				line = r.spill
			}
			r.pos += int64(len(line))
			return line, nil
		}
	}
}

// FieldScanner splits records into fields with zero steady-state
// allocations: the field-slice header and the unquoting scratch buffer are
// owned by the scanner and reused across records. Quoted fields ("a,b" style,
// with "" escaping) are supported; the zero value is ready to use.
//
// Splitting is lazy: Reset points the scanner at a record and Field splits it
// only as far as the field asked for, so a reader that rejects a record on an
// early column never splits the rest. Scan splits the whole record.
type FieldScanner struct {
	fields  [][]byte
	scratch []byte
	rest    []byte // the part of the record not split yet
	delim   byte
	done    bool // the record's last field has been split
}

// Reset points the scanner at a new record without splitting any of it. The
// fields the scanner hands out alias either the record (unquoted fields) or
// the scanner's scratch buffer (quoted fields); both are only valid until the
// next Reset or Scan.
//
//scoop:hotpath
func (s *FieldScanner) Reset(record []byte, delim byte) {
	s.scratch = s.scratch[:0]
	s.fields = s.fields[:0]
	s.rest, s.delim = record, delim
	s.done = false
}

// Field returns field i of the record, splitting only as far as i. ok is
// false when the record has no field i, which readers take as NULL.
//
//scoop:hotpath
func (s *FieldScanner) Field(i int) (field []byte, ok bool) {
	if len(s.fields) <= i {
		s.split(i + 1)
		if len(s.fields) <= i {
			return nil, false
		}
	}
	return s.fields[i], true
}

// Scan splits one record into all of its fields, which stay valid as
// Reset's do.
//
//scoop:hotpath
func (s *FieldScanner) Scan(record []byte, delim byte) [][]byte {
	s.Reset(record, delim)
	s.split(len(record) + 1) // a record has at most one field more than bytes
	return s.fields
}

// split is the one splitting loop: it cuts fields off the record until n
// are cut or the last one is. One walk serves any number of Field calls,
// since each goes on from where the previous one stopped.
func (s *FieldScanner) split(n int) {
	rest := s.rest
	for !s.done && len(s.fields) < n {
		if len(rest) > 0 && rest[0] == '"' {
			rest = s.unquote(rest)
			continue
		}
		j := bytes.IndexByte(rest, s.delim)
		if j < 0 {
			s.fields = append(s.fields, rest)
			s.done = true
			break
		}
		s.fields = append(s.fields, rest[:j])
		rest = rest[j+1:]
	}
	s.rest = rest
}

// unquote cuts the quoted field record begins with and returns the rest of
// the record after its delimiter. Quoted fields unescape into scratch. A
// field handed out is capped at its own bytes and append only writes past
// len, so fields already handed out stay intact when scratch grows; the
// grow amortizes to the longest record's quoted content.
func (s *FieldScanner) unquote(record []byte) []byte {
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
	if i < len(record) && record[i] == s.delim {
		return record[i+1:]
	}
	s.done = true
	return nil
}

// NeedsQuoting reports whether a field must be quoted when written. It looks
// at each byte once: CSV fields are short, so one pass beats four IndexByte
// scans.
func NeedsQuoting(field []byte, delim byte) bool {
	for _, c := range field {
		// '"' (34) is above '\n' and '\r', and most bytes of a field are
		// above all three: one compare rules them out.
		if c == delim || c <= '"' && (c == '"' || c == '\n' || c == '\r') {
			return true
		}
	}
	return false
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
	// A record none of whose fields needs quoting is laid out in the
	// writer's free buffer and handed over in one Write.
	size := len(fields) // the delimiters and the newline
	for _, f := range fields {
		if NeedsQuoting(f, delim) {
			size = -1
			break
		}
		size += len(f)
	}
	if size >= 0 && size <= bw.Available() {
		b := bw.AvailableBuffer()[:size]
		n := 0
		for i, f := range fields {
			if i > 0 {
				b[n] = delim
				n++
			}
			n += copy(b[n:], f)
		}
		b[n] = '\n'
		_, err := bw.Write(b)
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

// pow10 holds the exactly-representable powers of ten (10^22 is the largest).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// FastFloat parses a numeric field of the form [+-]?digits[.digits] when the
// mantissa fits in 53 bits and the fractional exponent stays within the
// exact pow10 table — the regime where one float division yields the
// correctly-rounded result, which is also strconv.ParseFloat's own exact
// fast path, so results are bit-identical. It allocates nothing. Anything
// else (spaces, exponents, hex, inf/NaN, longer mantissas) reports ok=false
// for the caller to fall back to strconv.
func FastFloat(b []byte) (float64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	i, neg := 0, false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	var mant uint64
	frac, sawDot, sawDigit := 0, false, false
	for ; i < len(b); i++ {
		c := b[i]
		if c == '.' {
			if sawDot {
				return 0, false
			}
			sawDot = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		sawDigit = true
		if mant >= 1<<53/10+1 {
			return 0, false // mantissa may leave the exact-representation range
		}
		mant = mant*10 + uint64(c-'0')
		if sawDot {
			frac++
		}
	}
	if !sawDigit || mant >= 1<<53 || frac >= len(pow10) {
		return 0, false
	}
	f := float64(mant) / pow10[frac]
	if neg {
		f = -f
	}
	return f, true
}
