package experiment

import (
	"fmt"
	"io"

	"scoop/internal/core"
	"scoop/internal/testbed"
)

// Table1 reproduces Table I: it runs the seven GridPocket queries on the
// real path, measuring column/row/data selectivity on the generated dataset
// and printing them next to the paper's values for the (unreleased) real
// GridPocket data.
func Table1(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "== Table I: GridPocket queries and their data selectivity ==")
	fmt.Fprintf(w, "dataset: %d rows, %d bytes (generator stands in for the real meters)\n\n", env.Rows, env.DatasetBytes)
	t := &table{header: []string{
		"query", "col sel (paper)", "col sel (ours)",
		"row sel (paper)", "row sel (ours)",
		"data sel (paper)", "data sel (ours)", "rows out",
	}}
	for _, q := range GridPocketQueries {
		m, err := env.RunQuery(q.Name, q.SQL)
		if err != nil {
			return err
		}
		t.add(q.Name,
			pct(q.PaperColSel), pct(m.ColSelectivity),
			pct(q.PaperRowSel), pct(m.RowSelectivity),
			pct(q.PaperDataSel), pct(m.DataSelectivity),
			fmt.Sprint(m.Rows),
		)
	}
	t.write(w)
	fmt.Fprintln(w, "\nNote: the generated span (Dec 2014 - Feb 2015) makes January about a")
	fmt.Fprintln(w, "third of the rows, so date-only predicates discard less than on")
	fmt.Fprintln(w, "GridPocket's multi-year archive; queries that also select a city or")
	fmt.Fprintln(w, "state reproduce the paper's >90% regime.")
	return nil
}

// Fig1 reproduces Fig. 1: ingest-then-compute query time grows linearly
// with dataset size.
func Fig1(w io.Writer) error {
	fmt.Fprintln(w, "== Fig. 1: the ingest-then-compute problem ==")
	fmt.Fprintln(w, "baseline (no pushdown) query completion time vs dataset size, testbed model")
	fmt.Fprintln(w)
	tb := testbed.OSIC()
	t := &table{header: []string{"dataset", "baseline time", "time/GB"}}
	for _, gbs := range []float64{50, 250, 500, 1000, 2000, 3000} {
		w1 := testbed.Workload{DatasetBytes: gbs * GB, Selectivity: 0.9, Type: testbed.Mixed}
		bt := tb.BaselineTime(w1)
		t.add(fmt.Sprintf("%4.0f GB", gbs), secs(bt), fmt.Sprintf("%.3f s/GB", bt/gbs))
	}
	t.write(w)
	fmt.Fprintln(w, "\nExpected shape: linear growth (constant s/GB once overheads amortize).")
	return nil
}

// Fig5 reproduces Fig. 5: S_Q against query data selectivity for row,
// column and mixed selectivity across the three dataset sizes.
func Fig5(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "== Fig. 5: query speedup vs data selectivity (testbed model) ==")
	tb := testbed.OSIC()
	sizes := []struct {
		name  string
		bytes float64
	}{{"50GB", 50 * GB}, {"500GB", 500 * GB}, {"3TB", 3 * TB}}
	for _, st := range []testbed.SelectivityType{testbed.Row, testbed.Column, testbed.Mixed} {
		fmt.Fprintf(w, "\n-- %s selectivity --\n", st)
		t := &table{header: []string{"selectivity", "S_Q 50GB", "S_Q 500GB", "S_Q 3TB"}}
		for _, sel := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9} {
			row := []string{pct(sel)}
			for _, sz := range sizes {
				_ = sz.name
				s := tb.Speedup(testbed.Workload{DatasetBytes: sz.bytes, Selectivity: sel, Type: st})
				row = append(row, f2(s))
			}
			t.add(row...)
		}
		t.write(w)
	}
	fmt.Fprintln(w, "\nExpected shape: S_Q ≈ 1 at 0% (paper: worst-case −3.4%), ≈5 at 80%,")
	fmt.Fprintln(w, ">10 at 90%; larger datasets see larger S_Q; row ≥ mixed ≥ column.")

	if env != nil {
		fmt.Fprintln(w, "\n-- real-path validation (laptop scale) --")
		if err := fig5RealValidation(w, env); err != nil {
			return err
		}
	}
	return nil
}

// fig5RealValidation sweeps row selectivity on the real system using vid
// range predicates and reports measured ingestion reduction and speedup.
func fig5RealValidation(w io.Writer, env *Env) error {
	t := &table{header: []string{"target row sel", "measured data sel", "bytes base", "bytes push", "real S_Q"}}
	for _, sel := range []float64{0, 0.5, 0.9, 0.99} {
		bound := env.Gen.RowSelectivityPredicate(1 - sel)
		sql := fmt.Sprintf("SELECT vid, date, index FROM largeMeter WHERE vid < '%s'", bound)
		m, err := env.RunQuery(fmt.Sprintf("sweep-%.2f", sel), sql)
		if err != nil {
			return err
		}
		push, err := env.Scoop.Query(sql, core.QueryOptions{Mode: core.ModePushdown})
		if err != nil {
			return err
		}
		base, err := env.Scoop.Query(sql, core.QueryOptions{Mode: core.ModeBaseline})
		if err != nil {
			return err
		}
		t.add(pct(sel), pct(m.DataSelectivity),
			fmt.Sprint(base.Metrics.BytesIngested), fmt.Sprint(push.Metrics.BytesIngested),
			f2(m.Speedup))
	}
	t.write(w)
	fmt.Fprintln(w, "\nExpected shape: pushdown bytes shrink with selectivity; at laptop scale")
	fmt.Fprintln(w, "wall-clock gains are smaller than the testbed's (no 10 Gbps bottleneck).")
	return nil
}

// Fig6 reproduces Fig. 6: speedups at very high data selectivity.
func Fig6(w io.Writer) error {
	fmt.Fprintln(w, "== Fig. 6: query speedup at high data selectivity (testbed model) ==")
	tb := testbed.OSIC()
	t := &table{header: []string{"selectivity", "type", "S_Q 50GB", "S_Q 500GB", "S_Q 3TB"}}
	for _, st := range []testbed.SelectivityType{testbed.Row, testbed.Column, testbed.Mixed} {
		for _, sel := range []float64{0.90, 0.95, 0.99, 0.9999} {
			row := []string{pct(sel), st.String()}
			for _, bytes := range []float64{50 * GB, 500 * GB, 3 * TB} {
				row = append(row, f2(tb.Speedup(testbed.Workload{DatasetBytes: bytes, Selectivity: sel, Type: st})))
			}
			t.add(row...)
		}
	}
	t.write(w)
	fmt.Fprintln(w, "\nExpected shape: up to ~31x (paper) for row selectivity on 3TB; the")
	fmt.Fprintln(w, "500GB→3TB gain is smaller than 50GB→500GB.")
	return nil
}

// Fig7 reproduces Fig. 7: speedups of the real GridPocket queries at the
// 50GB and 500GB scales, using selectivities measured on the real path.
func Fig7(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "== Fig. 7: GridPocket query speedups ==")
	tb := testbed.OSIC()
	t := &table{header: []string{
		"query", "meas. data sel", "real S_Q (laptop)",
		"model S_Q 50GB", "paper 50GB", "model t_base/t_push 500GB",
	}}
	var total50Base, total50Push float64
	for _, q := range GridPocketQueries {
		m, err := env.RunQuery(q.Name, q.SQL)
		if err != nil {
			return err
		}
		w50 := m.SimWorkload(50 * GB)
		w500 := m.SimWorkload(500 * GB)
		b500, p500 := tb.BaselineTime(w500), tb.PushdownTime(w500)
		total50Base += tb.BaselineTime(w50)
		total50Push += tb.PushdownTime(w50)
		t.add(q.Name, pct(m.DataSelectivity), f2(m.Speedup),
			f2(tb.Speedup(w50)), f1(q.PaperSpeedupSmall),
			fmt.Sprintf("%s/%s = %s", secs(b500), secs(p500), f2(b500/p500)))
	}
	t.write(w)
	fmt.Fprintf(w, "\nTotal model time for the 7 queries at 50GB: baseline %s vs pushdown %s\n",
		secs(total50Base), secs(total50Push))
	fmt.Fprintln(w, "(paper §VI-B: 4814.7s vs 155.5s for 500GB per-query imports)")
	return nil
}

// Fig8 reproduces Fig. 8: Scoop vs Parquet under column selectivity, with
// both the testbed model and a real-path comparison against the columnar
// baseline implementation.
func Fig8(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "== Fig. 8: pushdown vs Parquet (column selectivity) ==")
	tb := testbed.OSIC()
	fmt.Fprintln(w, "\n-- testbed model, 50GB --")
	t := &table{header: []string{"col selectivity", "S_Q scoop", "S_Q parquet", "winner"}}
	for _, sel := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9} {
		wl := testbed.Workload{DatasetBytes: 50 * GB, Selectivity: sel, Type: testbed.Column}
		s, p := tb.Speedup(wl), tb.ParquetSpeedup(wl)
		winner := "parquet"
		if s >= p {
			winner = "scoop"
		}
		t.add(pct(sel), f2(s), f2(p), winner)
	}
	t.write(w)
	fmt.Fprintln(w, "\nExpected shape: Parquet wins at low selectivity (compression);")
	fmt.Fprintln(w, "Scoop crosses over around 60% and is ≈2.16x faster at 90% (paper).")

	if env != nil {
		fmt.Fprintln(w, "\n-- real-path transfer comparison (laptop scale) --")
		if err := fig8Real(w, env); err != nil {
			return err
		}
	}
	return nil
}

// Fig9 reproduces Fig. 9: compute-cluster and network resource usage with
// and without Scoop for a ShowGraphHCHP-like execution on 3TB.
func Fig9(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "== Fig. 9: compute-cluster resource usage (ShowGraphHCHP, 3TB, model) ==")
	tb := testbed.OSIC()
	wl := testbed.Workload{DatasetBytes: 3 * TB, Selectivity: 0.99, Type: testbed.Mixed}
	base := tb.UsageFor(wl, testbed.Baseline)
	push := tb.UsageFor(wl, testbed.Pushdown)
	t := &table{header: []string{"metric", "plain Spark/Swift", "Scoop", "paper"}}
	t.add("duration", secs(base.Duration), secs(push.Duration), "12-15x shorter")
	t.add("avg compute CPU", f2(base.ComputeCPUPct)+"%", f2(push.ComputeCPUPct)+"%", "3.1% vs 1.2%")
	t.add("compute CPU-seconds", f1(base.ComputeCPUSeconds), f1(push.ComputeCPUSeconds), "-97.8%")
	t.add("peak compute memory", f1(base.ComputeMemPct)+"%", f1(push.ComputeMemPct)+"%", "13.2% lower")
	t.add("LB avg transmit", fmt.Sprintf("%.0f MB/s", base.LBAvgBytesPerSec/1e6),
		fmt.Sprintf("%.0f MB/s", push.LBAvgBytesPerSec/1e6), "~saturated vs 189 MB/s")
	t.add("LB utilization", f1(base.LBUtilizationPct)+"%", f1(push.LBUtilizationPct)+"%", "near 100% vs small")
	t.write(w)

	// The figure itself is a time series; render a coarse one.
	fmt.Fprintln(w, "\n-- modeled time series (baseline) --")
	writeSeries(w, tb.Series(wl, testbed.Baseline, 8))
	fmt.Fprintln(w, "\n-- modeled time series (Scoop) --")
	writeSeries(w, tb.Series(wl, testbed.Pushdown, 8))

	if env != nil {
		fmt.Fprintln(w, "\n-- real-path cluster counters (laptop scale) --")
		if err := fig9Real(w, env); err != nil {
			return err
		}
	}
	return nil
}

// writeSeries renders a resource time series as table rows.
func writeSeries(w io.Writer, samples []testbed.Sample) {
	t := &table{header: []string{"t (s)", "compute CPU", "compute mem", "LB MB/s", "storage CPU"}}
	for _, s := range samples {
		t.add(fmt.Sprintf("%.0f", s.T), f2(s.ComputeCPUPct)+"%", f1(s.ComputeMemPct)+"%",
			fmt.Sprintf("%.0f", s.LBBytesPerSec/1e6), f1(s.StorageCPUPct)+"%")
	}
	t.write(w)
}

// Fig10 reproduces Fig. 10: storage-node CPU utilization with and without
// Scoop.
func Fig10(w io.Writer, env *Env) error {
	fmt.Fprintln(w, "== Fig. 10: storage-node CPU utilization (model) ==")
	tb := testbed.OSIC()
	wl := testbed.Workload{DatasetBytes: 3 * TB, Selectivity: 0.99, Type: testbed.Mixed}
	base := tb.UsageFor(wl, testbed.Baseline)
	push := tb.UsageFor(wl, testbed.Pushdown)
	t := &table{header: []string{"mode", "avg storage CPU", "paper"}}
	t.add("plain Swift", f2(base.StorageCPUPct)+"%", "1.25%")
	t.add("Scoop", f2(push.StorageCPUPct)+"%", "23.5%")
	t.write(w)

	if env != nil && env.Scoop.Cluster() != nil {
		fmt.Fprintln(w, "\n-- real-path: object-node filter time share --")
		c := env.Scoop.Cluster()
		c.ResetStats()
		q := GridPocketQueries[5] // ShowGraphHCHP
		if _, err := env.Scoop.Query(q.SQL, core.QueryOptions{Mode: core.ModePushdown}); err != nil {
			return err
		}
		ns := c.NodeStatsTotal()
		fmt.Fprintf(w, "object nodes: %d requests (%d filtered), read %d B, sent %d B, filter wall %v\n",
			ns.Requests, ns.FilteredRequests, ns.BytesRead, ns.BytesSent, ns.FilterTime)
		c.ResetStats()
		if _, err := env.Scoop.Query(q.SQL, core.QueryOptions{Mode: core.ModeBaseline}); err != nil {
			return err
		}
		ns = c.NodeStatsTotal()
		fmt.Fprintf(w, "baseline:     %d requests (%d filtered), read %d B, sent %d B, filter wall %v\n",
			ns.Requests, ns.FilteredRequests, ns.BytesRead, ns.BytesSent, ns.FilterTime)
	}
	return nil
}

// fig9Real runs ShowGraphHCHP on the real path in both modes and prints the
// store-side traffic counters — the laptop-scale analog of Fig. 9(c).
func fig9Real(w io.Writer, env *Env) error {
	c := env.Scoop.Cluster()
	if c == nil {
		fmt.Fprintln(w, "(external store: counters unavailable)")
		return nil
	}
	q := GridPocketQueries[5] // ShowGraphHCHP
	t := &table{header: []string{"mode", "LB bytes", "proxy<-nodes", "proxy->client", "duration"}}
	for _, mode := range []core.Mode{core.ModeBaseline, core.ModePushdown} {
		c.ResetStats()
		res, err := env.Scoop.Query(q.SQL, core.QueryOptions{Mode: mode})
		if err != nil {
			return err
		}
		ps := c.ProxyStatsTotal()
		t.add(mode.String(), fmt.Sprint(c.LBBytes()), fmt.Sprint(ps.BytesFromNodes),
			fmt.Sprint(ps.BytesToClient), res.Metrics.WallTime.String())
	}
	t.write(w)
	fmt.Fprintln(w, "\nExpected shape: Scoop moves a small fraction of the bytes across the LB.")
	return nil
}
