//go:build !race

// Allocation-budget regression tests: the record hot path (range reading,
// field splitting, record writing) must stay at zero heap allocations per
// record in steady state. They are excluded under the race detector, whose
// instrumentation allocates; scripts/verify.sh runs them in a separate
// non-race step (go test -run TestAllocBudget).
package csvio

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
)

// budgetDoc is ~1000 records including quoted fields, so both splitter paths
// and the blank-line skip are on the measured path.
func budgetDoc() []byte {
	var sb strings.Builder
	for i := 0; i < 1000; i++ {
		if i%100 == 7 {
			sb.WriteString("\"v,9\",2015-01-17 10:20:00,77.5,\"Rotter\"\"dam\",NED\n")
			continue
		}
		sb.WriteString("vid8,2015-01-17 10:20:00,42.25,Rotterdam,NED\n")
	}
	return []byte(sb.String())
}

func TestAllocBudgetRangeReader(t *testing.T) {
	doc := budgetDoc()
	size := int64(len(doc))
	var rd bytes.Reader
	rd.Reset(doc)
	rr := NewRangeReader(&rd, 0, size)
	drain := func() {
		rd.Reset(doc)
		rr.Reset(&rd, 0, size)
		for {
			if _, err := rr.Next(); err != nil {
				return
			}
		}
	}
	drain() // warm the internal buffers
	if avg := testing.AllocsPerRun(20, drain); avg != 0 {
		t.Fatalf("RangeReader steady state: %v allocs per 1000-record pass, want 0", avg)
	}
}

func TestAllocBudgetFieldScanner(t *testing.T) {
	records := [][]byte{
		[]byte("vid8,2015-01-17 10:20:00,42.25,Rotterdam,NED"),
		[]byte("\"v,9\",2015-01-17 10:20:00,77.5,\"Rotter\"\"dam\",NED"),
		[]byte("a,,c,"),
	}
	var sc FieldScanner
	for _, rec := range records {
		sc.Scan(rec, DefaultDelimiter) // warm the scratch buffer
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, rec := range records {
			sc.Scan(rec, DefaultDelimiter)
		}
	})
	if avg != 0 {
		t.Fatalf("FieldScanner.Scan: %v allocs per pass, want 0", avg)
	}
	// The lazy path: a record split only to its second field, then one
	// split out of order to its end and past it.
	avg = testing.AllocsPerRun(100, func() {
		for _, rec := range records {
			sc.Reset(rec, DefaultDelimiter)
			sc.Field(1)
			sc.Reset(rec, DefaultDelimiter)
			sc.Field(3)
			sc.Field(0)
			sc.Field(9)
		}
	})
	if avg != 0 {
		t.Fatalf("FieldScanner.Reset + Field: %v allocs per pass, want 0", avg)
	}
}

func TestAllocBudgetWriteRecord(t *testing.T) {
	fields := [][]byte{
		[]byte("vid8"), []byte("2015-01-17 10:20:00"), []byte("42.25"),
		[]byte("needs,quoting"), []byte(`and "this"`),
	}
	// Caller-managed buffered writer: the filters' path.
	bw := bufio.NewWriterSize(io.Discard, 4<<10)
	if err := WriteRecord(bw, fields, DefaultDelimiter); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(100, func() {
		if err := WriteRecord(bw, fields, DefaultDelimiter); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("WriteRecord(*bufio.Writer): %v allocs per record, want 0", avg)
	}
	// Plain io.Writer: the pooled-buffer path.
	if err := WriteRecord(io.Discard, fields, DefaultDelimiter); err != nil {
		t.Fatal(err)
	}
	avg = testing.AllocsPerRun(100, func() {
		if err := WriteRecord(io.Discard, fields, DefaultDelimiter); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("WriteRecord(io.Writer): %v allocs per record, want 0", avg)
	}
}
