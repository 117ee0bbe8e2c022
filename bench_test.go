// Package scoop's root benchmarks regenerate the paper's evaluation: one
// benchmark per table/figure (printing its rows once per run and reporting
// headline numbers as custom metrics), plus three cluster-level ablations
// (staging, aggregation pushdown, compressed transfer).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package scoop

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/experiment"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/testbed"
)

var (
	envOnce sync.Once
	env     *experiment.Env
	envErr  error
)

// benchEnv builds the shared laptop-scale environment once.
func benchEnv(b *testing.B) *experiment.Env {
	b.Helper()
	envOnce.Do(func() {
		env, envErr = experiment.NewEnv(experiment.SmallScale())
	})
	if envErr != nil {
		b.Fatal(envErr)
	}
	return env
}

// printOnce writes an experiment's full table output a single time per
// benchmark run so `go test -bench` output doubles as figure regeneration.
func printOnce(b *testing.B, name string, fn func(w io.Writer) error) {
	b.Helper()
	var buf bytes.Buffer
	if err := fn(&buf); err != nil {
		b.Fatal(err)
	}
	b.Logf("%s:\n%s", name, buf.String())
}

// BenchmarkFig1IngestScaling regenerates Fig. 1 (baseline time linear in
// dataset size) and times the model evaluation.
func BenchmarkFig1IngestScaling(b *testing.B) {
	printOnce(b, "Fig. 1", experiment.Fig1)
	tb := testbed.OSIC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gbs := range []float64{50, 500, 3000} {
			_ = tb.BaselineTime(testbed.Workload{DatasetBytes: gbs * experiment.GB, Selectivity: 0.9, Type: testbed.Mixed})
		}
	}
}

// BenchmarkTable1GridPocketSelectivities regenerates Table I on the real
// path and times one full query (ShowPiemonth) per iteration.
func BenchmarkTable1GridPocketSelectivities(b *testing.B) {
	e := benchEnv(b)
	printOnce(b, "Table I", func(w io.Writer) error { return experiment.Table1(w, e) })
	q := experiment.GridPocketQueries[4] // ShowPiemonth
	b.SetBytes(e.DatasetBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Scoop.Query(q.SQL, core.QueryOptions{Mode: core.ModePushdown}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5SelectivitySweep regenerates Fig. 5 and times a mid-
// selectivity pushdown query on the real path.
func BenchmarkFig5SelectivitySweep(b *testing.B) {
	e := benchEnv(b)
	printOnce(b, "Fig. 5", func(w io.Writer) error { return experiment.Fig5(w, e) })
	bound := e.Gen.RowSelectivityPredicate(0.5)
	sql := fmt.Sprintf("SELECT vid, index FROM largeMeter WHERE vid < '%s'", bound)
	b.SetBytes(e.DatasetBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Scoop.Query(sql, core.QueryOptions{Mode: core.ModePushdown})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.Metrics.BytesIngested), "bytes-ingested")
		}
	}
}

// BenchmarkFig6HighSelectivity regenerates Fig. 6 and reports the model's
// 3TB/99.99% row-selectivity speedup as a metric (paper: up to ~31x).
func BenchmarkFig6HighSelectivity(b *testing.B) {
	printOnce(b, "Fig. 6", experiment.Fig6)
	tb := testbed.OSIC()
	w := testbed.Workload{DatasetBytes: 3 * experiment.TB, Selectivity: 0.9999, Type: testbed.Row}
	b.ReportMetric(tb.Speedup(w), "S_Q-3TB-99.99%")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tb.Speedup(w)
	}
}

// BenchmarkFig7GridPocketQueries regenerates Fig. 7 and times the full
// seven-query workload in pushdown mode.
func BenchmarkFig7GridPocketQueries(b *testing.B) {
	e := benchEnv(b)
	printOnce(b, "Fig. 7", func(w io.Writer) error { return experiment.Fig7(w, e) })
	b.SetBytes(int64(len(experiment.GridPocketQueries)) * e.DatasetBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range experiment.GridPocketQueries {
			if _, err := e.Scoop.Query(q.SQL, core.QueryOptions{Mode: core.ModePushdown}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig8ScoopVsParquet regenerates Fig. 8 (model + real transfer
// comparison) and times the model sweep.
func BenchmarkFig8ScoopVsParquet(b *testing.B) {
	e := benchEnv(b)
	printOnce(b, "Fig. 8", func(w io.Writer) error { return experiment.Fig8(w, e) })
	tb := testbed.OSIC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for sel := 0.0; sel < 1; sel += 0.1 {
			w := testbed.Workload{DatasetBytes: 50 * experiment.GB, Selectivity: sel, Type: testbed.Column}
			_ = tb.ParquetSpeedup(w)
			_ = tb.Speedup(w)
		}
	}
}

// BenchmarkFig9ResourceUsage regenerates Fig. 9 and reports the modeled
// compute CPU-seconds reduction.
func BenchmarkFig9ResourceUsage(b *testing.B) {
	e := benchEnv(b)
	printOnce(b, "Fig. 9", func(w io.Writer) error { return experiment.Fig9(w, e) })
	tb := testbed.OSIC()
	w := testbed.Workload{DatasetBytes: 3 * experiment.TB, Selectivity: 0.99, Type: testbed.Mixed}
	base := tb.UsageFor(w, testbed.Baseline)
	push := tb.UsageFor(w, testbed.Pushdown)
	b.ReportMetric(100*(1-push.ComputeCPUSeconds/base.ComputeCPUSeconds), "cpu-sec-saved-%")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tb.UsageFor(w, testbed.Pushdown)
	}
}

// BenchmarkFig10StorageCPU regenerates Fig. 10 and reports the modeled
// storage-node CPU under pushdown (paper: ≈23.5%).
func BenchmarkFig10StorageCPU(b *testing.B) {
	e := benchEnv(b)
	printOnce(b, "Fig. 10", func(w io.Writer) error { return experiment.Fig10(w, e) })
	tb := testbed.OSIC()
	w := testbed.Workload{DatasetBytes: 3 * experiment.TB, Selectivity: 0.99, Type: testbed.Mixed}
	b.ReportMetric(tb.UsageFor(w, testbed.Pushdown).StorageCPUPct, "storage-cpu-%")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = tb.UsageFor(w, testbed.Pushdown)
	}
}

// --- ablation micro-benchmarks (DESIGN.md §4) ---
//
// The CSV-filter throughput benchmarks (passthrough, row, column and mixed
// selectivity) live beside the filter in internal/storlet/csvfilter, the
// per-record csvio, LIKE and SQL-parse costs beside their packages, and the
// end-to-end pushdown/baseline pair in bench/ (wan_pushdown, wan_baseline);
// none is repeated here.

const benchSchema = "vid string, date string, index double, sumHC double, sumHP double, type string, city string, state string, lat double, long double"

// BenchmarkStagingObjectVsProxy is the staging ablation: the same filtered
// GET executed at the object node versus at the proxy tier (paper §V added
// object-node staging specifically to exploit the larger node pool and
// avoid moving full objects to proxies).
func BenchmarkStagingObjectVsProxy(b *testing.B) {
	e := benchEnv(b)
	client := e.Scoop.Client()
	account := e.Scoop.Account()
	for _, stage := range []string{pushdown.StageObject, pushdown.StageProxy} {
		b.Run(stage, func(b *testing.B) {
			task := &pushdown.Task{
				Filter: "csv", Schema: benchSchema,
				Columns: []string{"vid"},
				Stage:   stage,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rc, _, err := client.GetObject(context.Background(), account, "meters", "part-0000.csv",
					objectstore.GetOptions{Pushdown: []*pushdown.Task{task}})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, rc); err != nil {
					b.Fatal(err)
				}
				rc.Close()
			}
		})
	}
}

// BenchmarkAggregationPushdown is the §IV "aggregation at the store"
// ablation: the same GROUP BY computed via filter pushdown (every matching
// row travels; the aggregate's argument is written so that the planner keeps
// it at the compute side) versus aggregation pushdown (one partial record per
// group per split travels). Reported metric: bytes moved per mode.
func BenchmarkAggregationPushdown(b *testing.B) {
	e := benchEnv(b)
	for _, mode := range []struct {
		name, sum string
		atStore   bool
	}{{"filter-pushdown", "sum(index + 0)", false}, {"aggregation-pushdown", "sum(index)", true}} {
		q := "SELECT vid, " + mode.sum + " AS s, count(*) AS n FROM largeMeter GROUP BY vid ORDER BY vid"
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(e.DatasetBytes)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := e.Scoop.Query(q, core.QueryOptions{Mode: core.ModePushdown})
				if err != nil {
					b.Fatal(err)
				}
				if (res.Plan.StoreAgg != nil) != mode.atStore {
					b.Fatalf("aggregation at the store = %v, want %v", !mode.atStore, mode.atStore)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Metrics.BytesIngested), "bytes-moved")
				}
			}
		})
	}
}

// BenchmarkCompressedTransfer is the §VII filtering+compression ablation:
// the same pruned scan with and without DEFLATE on the wire.
func BenchmarkCompressedTransfer(b *testing.B) {
	b.Run("plain", func(b *testing.B) { benchTransfer(b, false) })
	b.Run("compressed", func(b *testing.B) { benchTransfer(b, true) })
}

func benchTransfer(b *testing.B, compress bool) {
	e := benchEnv(b)
	rel, err := datasource.NewCSV(e.Scoop.Connector(), "meters", "", benchSchema,
		datasource.CSVOptions{Pushdown: true, CompressTransfer: compress})
	if err != nil {
		b.Fatal(err)
	}
	splits, err := rel.Splits(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(e.DatasetBytes)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Scoop.Connector().ResetStats()
		for _, s := range splits {
			it, err := rel.ScanPruned(context.Background(), s, []string{"vid", "index"})
			if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := it.Next(); err != nil {
					break
				}
			}
			it.Close()
		}
		if i == 0 {
			b.ReportMetric(float64(e.Scoop.Connector().Stats().BytesIngested), "bytes-moved")
		}
	}
}
