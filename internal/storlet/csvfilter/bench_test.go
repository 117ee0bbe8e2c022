package csvfilter_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"scoop/internal/pushdown"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
)

// The CSV storlet under the selectivity regimes the paper's Fig. 5/6
// speedups rest on, plus its per-record steady-state cost. Every benchmark
// here goes through public API only, so its body, and therefore its numbers
// in BENCH_1..5.json, stay comparable across rewrites of the hot path.

// suiteSchema mirrors the GridPocket meter-reading schema used everywhere
// else in the evaluation.
const suiteSchema = "vid string, date string, index double, sumHC double, sumHP double, type string, city string, state string, lat double, long double"

// suiteData repeats one meter record (with varying vid/date) into a ~1 MB
// block.
var suiteData = func() []byte {
	var buf bytes.Buffer
	for i := 0; buf.Len() < 1<<20; i++ {
		fmt.Fprintf(&buf, "V%06d,2015-01-%02d 00:10:00,%d.25,%d.50,%d.75,elec,Rotterdam,NED,51.9225,4.4792\n",
			i%1000, 1+i%28, i, i/2, i/3)
	}
	return buf.Bytes()
}()

// perRecord is the exact record cycled through the per-record steady-state
// benchmarks (trailing newline included in its length).
var perRecord = []byte("V000042,2015-01-17 00:10:00,1042.25,521.50,347.75,elec,Rotterdam,NED,51.9225,4.4792\n")

// repeatReader endlessly cycles a byte block: an unbounded object stream
// for steady-state benchmarks, with no per-read allocation.
type repeatReader struct {
	data []byte
	off  int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.data[r.off:])
	r.off = (r.off + n) % len(r.data)
	return n, nil
}

// invokeSuiteFilter runs the CSV storlet over the 1 MB block once per
// iteration.
func invokeSuiteFilter(b *testing.B, task *pushdown.Task) {
	f := csvfilter.New()
	ctx := &storlet.Context{
		Task:       task,
		RangeEnd:   int64(len(suiteData)),
		ObjectSize: int64(len(suiteData)),
	}
	b.SetBytes(int64(len(suiteData)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Invoke(ctx, bytes.NewReader(suiteData), io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCSVFilterPassthrough(b *testing.B) {
	invokeSuiteFilter(b, &pushdown.Task{Filter: "csv", Schema: suiteSchema})
}

func BenchmarkCSVFilterRowSelectivity(b *testing.B) {
	invokeSuiteFilter(b, &pushdown.Task{
		Filter: "csv", Schema: suiteSchema,
		Predicates: []pushdown.Predicate{{Column: "vid", Op: pushdown.OpEq, Value: "V000007"}},
	})
}

func BenchmarkCSVFilterNumericSelectivity(b *testing.B) {
	invokeSuiteFilter(b, &pushdown.Task{
		Filter: "csv", Schema: suiteSchema,
		Predicates: []pushdown.Predicate{{Column: "index", Op: pushdown.OpGt, Value: "5000", Numeric: true}},
	})
}

func BenchmarkCSVFilterColumnSelectivity(b *testing.B) {
	invokeSuiteFilter(b, &pushdown.Task{
		Filter: "csv", Schema: suiteSchema,
		Columns: []string{"vid", "index"},
	})
}

func BenchmarkCSVFilterMixed(b *testing.B) {
	invokeSuiteFilter(b, &pushdown.Task{
		Filter: "csv", Schema: suiteSchema,
		Columns:    []string{"vid", "index"},
		Predicates: []pushdown.Predicate{{Column: "city", Op: pushdown.OpLike, Value: "Rot%"}},
	})
}

// BenchmarkCSVFilterPerRecord is the benchmark behind "zero-allocation":
// one op = one record through a single long-lived invocation, so allocs/op
// is literally allocations per record in steady state (the per-invocation
// setup amortizes to zero over b.N records).
func BenchmarkCSVFilterPerRecord(b *testing.B) {
	f := csvfilter.New()
	end := int64(b.N) * int64(len(perRecord))
	ctx := &storlet.Context{
		Task:       &pushdown.Task{Filter: "csv", Schema: suiteSchema},
		RangeEnd:   end,
		ObjectSize: end,
	}
	b.SetBytes(int64(len(perRecord)))
	b.ReportAllocs()
	b.ResetTimer()
	if err := f.Invoke(ctx, &repeatReader{data: perRecord}, io.Discard); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkCSVFilterSelectPerRecord(b *testing.B) {
	f := csvfilter.New()
	end := int64(b.N) * int64(len(perRecord))
	ctx := &storlet.Context{
		Task: &pushdown.Task{
			Filter: "csv", Schema: suiteSchema,
			Columns: []string{"vid", "index"},
			Predicates: []pushdown.Predicate{
				{Column: "state", Op: pushdown.OpEq, Value: "NED"},
				{Column: "index", Op: pushdown.OpGt, Value: "5", Numeric: true},
			},
		},
		RangeEnd:   end,
		ObjectSize: end,
	}
	b.SetBytes(int64(len(perRecord)))
	b.ReportAllocs()
	b.ResetTimer()
	if err := f.Invoke(ctx, &repeatReader{data: perRecord}, io.Discard); err != nil {
		b.Fatal(err)
	}
}
