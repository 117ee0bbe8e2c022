// Package colstore implements the columnar storage format used as the
// comparison baseline in the paper's §VI-C (Apache Parquet): data is laid
// out per column in compressed chunks with a footer index, so a reader can
// fetch only the columns a query projects — but, unlike Scoop, the
// *decompression and row filtering happen at the compute side*, and row
// selectivity cannot reduce transfer at all.
//
// File layout:
//
//	[magic "SCOL1"]
//	[row group 0: column chunk 0, column chunk 1, ...]
//	[row group 1: ...]
//	...
//	[footer JSON][footer length uint32][magic "SCOL1"]
//
// Each column chunk is DEFLATE-compressed. The footer records the schema and
// every chunk's offset/size, enabling ranged reads of single columns.
package colstore

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"scoop/internal/sql/types"
)

// Magic identifies the format (start and end of file).
const Magic = "SCOL1"

// DefaultRowGroupSize is the number of rows per row group.
const DefaultRowGroupSize = 64 * 1024

// ChunkMeta locates one column chunk within the file.
type ChunkMeta struct {
	Offset int64 `json:"off"`
	Size   int64 `json:"size"`
	// Raw is the uncompressed size.
	Raw int64 `json:"raw"`
}

// GroupMeta describes one row group.
type GroupMeta struct {
	Rows   int64       `json:"rows"`
	Chunks []ChunkMeta `json:"chunks"` // one per column, schema order
}

// Footer is the file's self-describing index.
type Footer struct {
	Schema string      `json:"schema"` // "name type, ..." declaration
	Groups []GroupMeta `json:"groups"`
	Rows   int64       `json:"rows"`
}

// Writer encodes rows into the columnar format.
type Writer struct {
	w            io.Writer
	schema       *types.Schema
	decl         string
	rowGroupSize int

	off    int64
	footer Footer
	cols   []bytes.Buffer // pending row group, one buffer per column
	rows   int64
	err    error
}

// NewWriter starts a columnar file with the given schema declaration.
func NewWriter(w io.Writer, schemaDecl string, rowGroupSize int) (*Writer, error) {
	schema, err := types.ParseSchema(schemaDecl)
	if err != nil {
		return nil, err
	}
	if rowGroupSize <= 0 {
		rowGroupSize = DefaultRowGroupSize
	}
	cw := &Writer{
		w:            w,
		schema:       schema,
		decl:         schemaDecl,
		rowGroupSize: rowGroupSize,
		cols:         make([]bytes.Buffer, schema.Len()),
	}
	cw.footer.Schema = schemaDecl
	if err := cw.writeRaw([]byte(Magic)); err != nil {
		return nil, err
	}
	return cw, nil
}

func (w *Writer) writeRaw(b []byte) error {
	if w.err != nil {
		return w.err
	}
	n, err := w.w.Write(b)
	w.off += int64(n)
	if err != nil {
		w.err = err
	}
	return w.err
}

// WriteRow appends one row; values are encoded per the schema's types.
func (w *Writer) WriteRow(row types.Row) error {
	if w.err != nil {
		return w.err
	}
	if len(row) != w.schema.Len() {
		return fmt.Errorf("colstore: row width %d, schema width %d", len(row), w.schema.Len())
	}
	for i, v := range row {
		encodeValue(&w.cols[i], v, w.schema.Columns[i].Type)
	}
	w.rows++
	if w.rows-groupRows(w.footer.Groups) >= int64(w.rowGroupSize) {
		return w.flushGroup()
	}
	return nil
}

func groupRows(groups []GroupMeta) int64 {
	var n int64
	for _, g := range groups {
		n += g.Rows
	}
	return n
}

func (w *Writer) flushGroup() error {
	pending := w.rows - groupRows(w.footer.Groups)
	if pending == 0 {
		return w.err
	}
	group := GroupMeta{Rows: pending}
	for i := range w.cols {
		raw := w.cols[i].Bytes()
		var comp bytes.Buffer
		fw, err := flate.NewWriter(&comp, flate.BestSpeed)
		if err != nil {
			w.err = err
			return err
		}
		if _, err := fw.Write(raw); err != nil {
			w.err = err
			return err
		}
		if err := fw.Close(); err != nil {
			w.err = err
			return err
		}
		group.Chunks = append(group.Chunks, ChunkMeta{
			Offset: w.off,
			Size:   int64(comp.Len()),
			Raw:    int64(len(raw)),
		})
		if err := w.writeRaw(comp.Bytes()); err != nil {
			return err
		}
		w.cols[i].Reset()
	}
	w.footer.Groups = append(w.footer.Groups, group)
	return w.err
}

// Close flushes the final row group and writes the footer. The Writer is
// unusable afterwards.
func (w *Writer) Close() error {
	if err := w.flushGroup(); err != nil {
		return err
	}
	w.footer.Rows = w.rows
	footerJSON, err := json.Marshal(w.footer)
	if err != nil {
		w.err = err
		return err
	}
	if err := w.writeRaw(footerJSON); err != nil {
		return err
	}
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(footerJSON)))
	if err := w.writeRaw(lenBuf[:]); err != nil {
		return err
	}
	return w.writeRaw([]byte(Magic))
}

// value encoding: a null byte flag, then the type-specific payload.

func encodeValue(buf *bytes.Buffer, v types.Value, t types.Type) {
	if v.IsNull() {
		buf.WriteByte(0)
		return
	}
	buf.WriteByte(1)
	switch t {
	case types.Int:
		i, _ := v.AsInt()
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutVarint(tmp[:], i)
		buf.Write(tmp[:n])
	case types.Float:
		f, _ := v.AsFloat()
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], math.Float64bits(f))
		buf.Write(tmp[:])
	case types.Bool:
		b, _ := v.AsBool()
		if b {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	default: // String
		s := v.AsString()
		var tmp [binary.MaxVarintLen64]byte
		n := binary.PutUvarint(tmp[:], uint64(len(s)))
		buf.Write(tmp[:n])
		buf.WriteString(s)
	}
}

func decodeValue(r *bytes.Reader, t types.Type) (types.Value, error) {
	flag, err := r.ReadByte()
	if err != nil {
		return types.Value{}, err
	}
	if flag == 0 {
		return types.NullValue(), nil
	}
	switch t {
	case types.Int:
		i, err := binary.ReadVarint(r)
		if err != nil {
			return types.Value{}, err
		}
		return types.IntV(i), nil
	case types.Float:
		var tmp [8]byte
		if _, err := io.ReadFull(r, tmp[:]); err != nil {
			return types.Value{}, err
		}
		return types.FloatV(math.Float64frombits(binary.BigEndian.Uint64(tmp[:]))), nil
	case types.Bool:
		b, err := r.ReadByte()
		if err != nil {
			return types.Value{}, err
		}
		return types.BoolV(b != 0), nil
	default:
		n, err := binary.ReadUvarint(r)
		if err != nil {
			return types.Value{}, err
		}
		if n > uint64(r.Len()) {
			return types.Value{}, fmt.Errorf("colstore: corrupt string length %d", n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return types.Value{}, err
		}
		return types.Str(string(buf)), nil
	}
}

// RangeFetcher reads byte ranges of a stored file — implemented by the
// object-store connector so column chunks travel as ranged GETs.
type RangeFetcher interface {
	// Fetch returns bytes [off, off+size) of the file. The context bounds
	// the underlying transfer (a ranged GET for remote files).
	Fetch(ctx context.Context, off, size int64) ([]byte, error)
}

// ReadFooter fetches and parses the footer given the file size.
func ReadFooter(ctx context.Context, f RangeFetcher, fileSize int64) (*Footer, error) {
	tailLen := int64(4 + len(Magic))
	if fileSize < tailLen+int64(len(Magic)) {
		return nil, fmt.Errorf("colstore: file too small (%d bytes)", fileSize)
	}
	tail, err := f.Fetch(ctx, fileSize-tailLen, tailLen)
	if err != nil {
		return nil, err
	}
	if string(tail[4:]) != Magic {
		return nil, fmt.Errorf("colstore: bad trailing magic %q", tail[4:])
	}
	footerLen := int64(binary.BigEndian.Uint32(tail[:4]))
	if footerLen <= 0 || footerLen > fileSize-tailLen {
		return nil, fmt.Errorf("colstore: bad footer length %d", footerLen)
	}
	raw, err := f.Fetch(ctx, fileSize-tailLen-footerLen, footerLen)
	if err != nil {
		return nil, err
	}
	var footer Footer
	if err := json.Unmarshal(raw, &footer); err != nil {
		return nil, fmt.Errorf("colstore: parse footer: %w", err)
	}
	return &footer, nil
}

// Reader decodes selected columns of a columnar file.
type Reader struct {
	f      RangeFetcher
	footer *Footer
	schema *types.Schema
}

// NewReader opens a columnar file for reading.
func NewReader(ctx context.Context, f RangeFetcher, fileSize int64) (*Reader, error) {
	footer, err := ReadFooter(ctx, f, fileSize)
	if err != nil {
		return nil, err
	}
	schema, err := types.ParseSchema(footer.Schema)
	if err != nil {
		return nil, err
	}
	return &Reader{f: f, footer: footer, schema: schema}, nil
}

// Schema returns the file's schema.
func (r *Reader) Schema() *types.Schema { return r.schema }

// Rows returns the total row count.
func (r *Reader) Rows() int64 { return r.footer.Rows }

// Groups returns the number of row groups (the parallelism unit).
func (r *Reader) Groups() int { return len(r.footer.Groups) }

// ReadGroup decodes the named columns of row group g into rows laid out in
// the given column order. Only those columns' chunks are fetched.
func (r *Reader) ReadGroup(ctx context.Context, g int, columns []string) ([]types.Row, error) {
	if g < 0 || g >= len(r.footer.Groups) {
		return nil, fmt.Errorf("colstore: row group %d out of range", g)
	}
	if len(columns) == 0 {
		columns = r.schema.Names()
	}
	group := r.footer.Groups[g]
	rows := make([]types.Row, group.Rows)
	for i := range rows {
		rows[i] = make(types.Row, len(columns))
	}
	for ci, name := range columns {
		idx := r.schema.Index(name)
		if idx < 0 {
			return nil, fmt.Errorf("colstore: unknown column %q", name)
		}
		chunk := group.Chunks[idx]
		comp, err := r.f.Fetch(ctx, chunk.Offset, chunk.Size)
		if err != nil {
			return nil, err
		}
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(comp)))
		if err != nil {
			return nil, fmt.Errorf("colstore: decompress column %q: %w", name, err)
		}
		br := bytes.NewReader(raw)
		t := r.schema.Columns[idx].Type
		for ri := int64(0); ri < group.Rows; ri++ {
			v, err := decodeValue(br, t)
			if err != nil {
				return nil, fmt.Errorf("colstore: decode column %q row %d: %w", name, ri, err)
			}
			rows[ri][ci] = v
		}
	}
	return rows, nil
}

// BytesFetcher adapts an in-memory file to RangeFetcher.
type BytesFetcher []byte

// Fetch implements RangeFetcher.
func (b BytesFetcher) Fetch(_ context.Context, off, size int64) ([]byte, error) {
	if off < 0 || off+size > int64(len(b)) {
		return nil, fmt.Errorf("colstore: fetch [%d,%d) out of %d", off, off+size, len(b))
	}
	return b[off : off+size], nil
}
