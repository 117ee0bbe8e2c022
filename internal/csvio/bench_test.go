package csvio_test

import (
	"bytes"
	"io"
	"testing"

	"scoop/internal/csvio"
)

// Per-record steady-state costs of the primitives under the CSV storlet,
// through public API only, so their numbers in BENCH_1..5.json stay
// comparable across rewrites of the package.

// perRecord is the exact record cycled through the per-record benchmarks
// (trailing newline included in its length).
var perRecord = []byte("V000042,2015-01-17 00:10:00,1042.25,521.50,347.75,elec,Rotterdam,NED,51.9225,4.4792\n")

// repeatReader endlessly cycles a byte block: an unbounded object stream
// with no per-read allocation. Each Read fills p across the wrap-around, so
// a refill brings in many records and Next mostly takes the per-record path.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.data[r.off:])
		n += c
		r.off = (r.off + c) % len(r.data)
	}
	return n, nil
}

func BenchmarkRangeReaderPerRecord(b *testing.B) {
	rr := csvio.NewRangeReader(&repeatReader{data: perRecord}, 0, int64(1)<<62)
	b.SetBytes(int64(len(perRecord)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rr.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFieldsPerRecord(b *testing.B) {
	rec := bytes.TrimRight(perRecord, "\n")
	var sc csvio.FieldScanner
	b.SetBytes(int64(len(perRecord)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fields := sc.Scan(rec, ','); len(fields) != 10 {
			b.Fatalf("fields = %d", len(fields))
		}
	}
}

func BenchmarkWriteRecordPerRecord(b *testing.B) {
	fields := new(csvio.FieldScanner).Scan(bytes.TrimRight(perRecord, "\n"), ',')
	b.SetBytes(int64(len(perRecord)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := csvio.WriteRecord(io.Discard, fields, ','); err != nil {
			b.Fatal(err)
		}
	}
}
