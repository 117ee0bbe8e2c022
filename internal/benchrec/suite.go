package benchrec

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"scoop/internal/csvio"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
)

// The recorded suite covers the ingestion hot path the paper's Fig. 5/6
// speedups rest on: the CSV storlet under the four selectivity regimes the
// root benchmarks ablate, plus per-record steady-state costs of the csvio
// primitives underneath it. Every benchmark here goes through public API
// only, so its body — and therefore its trajectory — stays comparable across
// internal rewrites of the hot path.

// suiteSchema mirrors the GridPocket meter-reading schema used everywhere
// else in the evaluation.
const suiteSchema = "vid string, date string, index double, sumHC double, sumHP double, type string, city string, state string, lat double, long double"

// suiteRecord is one fixed-width-ish meter record; suiteData repeats it (with
// varying vid/date) into a ~1 MB block.
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

// repeatReader endlessly cycles a byte block — an unbounded object stream
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

// cacheBenchTask is the filtered-GET chain the result-cache pair measures:
// a selective projection, so the cold path pays the full 1 MB filter
// execution and the cached path serves the small result body.
var cacheBenchTask = &pushdown.Task{
	Filter: "csv", Schema: suiteSchema,
	Columns:    []string{"vid", "index"},
	Predicates: []pushdown.Predicate{{Column: "city", Op: pushdown.OpLike, Value: "Rot%"}},
}

// newCacheBenchStore stands up the smallest in-process cluster that serves a
// filtered GET, with the result cache sized by cacheBytes (0 disables it),
// and uploads the 1 MB suite block as one object.
func newCacheBenchStore(b *testing.B, cacheBytes int64) *objectstore.Cluster {
	b.Helper()
	cluster, err := objectstore.NewCluster(objectstore.ClusterConfig{
		Proxies: 1, ObjectNodes: 2, DisksPerNode: 1, Replicas: 2, PartPower: 4,
		ResultCacheBytes: cacheBytes,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.Engine().Register(csvfilter.New()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	client := cluster.Client()
	if err := client.CreateContainer(ctx, "gp", "meters", nil); err != nil {
		b.Fatal(err)
	}
	if _, err := client.PutObject(ctx, "gp", "meters", "block.csv", bytes.NewReader(suiteData), nil); err != nil {
		b.Fatal(err)
	}
	return cluster
}

// cacheBenchGet is one dashboard request: a filtered GET of the block,
// drained and closed.
func cacheBenchGet(b *testing.B, client objectstore.Client) {
	rc, _, err := client.GetObject(context.Background(), "gp", "meters", "block.csv",
		objectstore.GetOptions{Pushdown: []*pushdown.Task{cacheBenchTask}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, rc); err != nil {
		b.Fatal(err)
	}
	rc.Close()
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

// Suite returns the recorded hot-path benchmarks in trajectory order.
func Suite() []Benchmark {
	return []Benchmark{
		{Name: "BenchmarkCSVFilterPassthrough", F: func(b *testing.B) {
			invokeSuiteFilter(b, &pushdown.Task{Filter: "csv", Schema: suiteSchema})
		}},
		{Name: "BenchmarkCSVFilterRowSelectivity", F: func(b *testing.B) {
			invokeSuiteFilter(b, &pushdown.Task{
				Filter: "csv", Schema: suiteSchema,
				Predicates: []pushdown.Predicate{{Column: "vid", Op: pushdown.OpEq, Value: "V000007"}},
			})
		}},
		{Name: "BenchmarkCSVFilterNumericSelectivity", F: func(b *testing.B) {
			invokeSuiteFilter(b, &pushdown.Task{
				Filter: "csv", Schema: suiteSchema,
				Predicates: []pushdown.Predicate{{Column: "index", Op: pushdown.OpGt, Value: "5000", Numeric: true}},
			})
		}},
		{Name: "BenchmarkCSVFilterColumnSelectivity", F: func(b *testing.B) {
			invokeSuiteFilter(b, &pushdown.Task{
				Filter: "csv", Schema: suiteSchema,
				Columns: []string{"vid", "index"},
			})
		}},
		{Name: "BenchmarkCSVFilterMixed", F: func(b *testing.B) {
			invokeSuiteFilter(b, &pushdown.Task{
				Filter: "csv", Schema: suiteSchema,
				Columns:    []string{"vid", "index"},
				Predicates: []pushdown.Predicate{{Column: "city", Op: pushdown.OpLike, Value: "Rot%"}},
			})
		}},
		// The acceptance metric for "zero-allocation": one op = one record
		// through a single long-lived invocation, so allocs/op is literally
		// allocations per record in steady state (the per-invocation setup
		// amortizes to zero over b.N records).
		{Name: "BenchmarkCSVFilterPerRecord", F: func(b *testing.B) {
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
		}},
		{Name: "BenchmarkCSVFilterSelectPerRecord", F: func(b *testing.B) {
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
		}},
		{Name: "BenchmarkRangeReaderPerRecord", F: func(b *testing.B) {
			rr := csvio.NewRangeReader(&repeatReader{data: perRecord}, 0, int64(1)<<62)
			b.SetBytes(int64(len(perRecord)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rr.Next(); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "BenchmarkFieldsPerRecord", F: func(b *testing.B) {
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
		}},
		{Name: "BenchmarkWriteRecordPerRecord", F: func(b *testing.B) {
			fields := new(csvio.FieldScanner).Scan(bytes.TrimRight(perRecord, "\n"), ',')
			b.SetBytes(int64(len(perRecord)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := csvio.WriteRecord(io.Discard, fields, ','); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The result-cache pair: the same filtered GET against the same
		// object, first with the cache disabled (every op executes the
		// filter over the full block — the repeated-dashboard worst case),
		// then with the cache enabled and a 99%-repeat mix (one entry
		// invalidation per hundred ops re-fills it, the rest are hits).
		// Their bytes/s ratio is the recorded repeat-workload speedup.
		{Name: "BenchmarkResultCacheColdMiss", F: func(b *testing.B) {
			cluster := newCacheBenchStore(b, 0)
			client := cluster.Client()
			b.SetBytes(int64(len(suiteData)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cacheBenchGet(b, client)
			}
		}},
		{Name: "BenchmarkResultCacheDashboard99", F: func(b *testing.B) {
			cluster := newCacheBenchStore(b, 256<<20)
			client := cluster.Client()
			cacheBenchGet(b, client) // warm the entry
			b.SetBytes(int64(len(suiteData)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%100 == 99 {
					cluster.ResultCache().InvalidatePath("/gp/meters/block.csv")
				}
				cacheBenchGet(b, client)
			}
		}},
	}
}
