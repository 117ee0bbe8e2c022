// Package experiment regenerates every table and figure of the paper's
// evaluation (§VI). Each experiment combines two sources:
//
//   - the *real path*: the full Scoop implementation in this repository,
//     exercised end-to-end on a laptop-scale dataset, measuring actual
//     ingested bytes, wall times and node/proxy counters; and
//   - the *testbed model* (internal/testbed): the analytical simulation of
//     the paper's 63-machine OSIC cluster, which projects the measured
//     selectivities to the paper's 50GB–3TB scales.
//
// Every experiment prints the paper's reported values next to the
// reproduction's, so EXPERIMENTS.md can record paper-vs-measured rows.
package experiment

import (
	"context"
	"fmt"
	"io"
	"time"

	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/meter"
	"scoop/internal/testbed"
)

// GB and TB in bytes, for workload definitions.
const (
	GB = 1e9
	TB = 1e12
)

// Env is a ready-to-query Scoop instance with a generated dataset.
type Env struct {
	Scoop *core.Scoop
	// DatasetBytes is the uploaded dataset's size.
	DatasetBytes int64
	// Meters and Rows describe the generated data.
	Meters int
	Rows   int64
	Gen    meter.Config
}

// Scale selects how much data the real path runs on.
type Scale struct {
	Meters  int
	Days    int
	Objects int
	// Start of the reading span. Spanning several months around Jan 2015
	// makes the Table I date predicates selective, as they are on
	// GridPocket's multi-year archive.
	Start time.Time
	// Interval between readings. The paper's data is 10-minutely; tests use
	// coarser intervals to stay fast.
	Interval time.Duration
	// ChunkSize drives partition discovery (small values force parallelism).
	ChunkSize int64
	Workers   int
}

// SmallScale is quick enough for unit tests and benchmarks (~2.5 MB,
// Dec 2014 – Feb 2015 so January is about a third of the rows).
func SmallScale() Scale {
	return Scale{
		Meters: 50, Days: 90, Objects: 4,
		Start:    time.Date(2014, 12, 1, 0, 0, 0, 0, time.UTC),
		Interval: 4 * time.Hour, ChunkSize: 128 << 10, Workers: 4,
	}
}

// MediumScale is the default for scoop-bench runs (~25 MB).
func MediumScale() Scale {
	return Scale{
		Meters: 120, Days: 90, Objects: 8,
		Start:    time.Date(2014, 12, 1, 0, 0, 0, 0, time.UTC),
		Interval: time.Hour, ChunkSize: 512 << 10, Workers: 4,
	}
}

// NewEnv builds a Scoop instance, generates and uploads the dataset, and
// registers the largeMeter table the Table I queries reference.
func NewEnv(sc Scale) (*Env, error) {
	s, err := core.New(core.Config{ChunkSize: sc.ChunkSize})
	if err != nil {
		return nil, err
	}
	gen := meter.DefaultConfig()
	gen.Meters = sc.Meters
	gen.Days = sc.Days
	gen.Interval = sc.Interval
	if !sc.Start.IsZero() {
		gen.Start = sc.Start
	}
	// Experiments are offline batch runs with no caller deadline.
	size, err := s.UploadMeterDataset(context.Background(), "meters", gen, sc.Objects)
	if err != nil {
		return nil, err
	}
	if err := s.RegisterTable("largeMeter", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		return nil, err
	}
	return &Env{Scoop: s, DatasetBytes: size, Meters: sc.Meters, Rows: gen.Rows(), Gen: gen}, nil
}

// MeasuredQuery is the outcome of running one query in both modes on the
// real path.
type MeasuredQuery struct {
	Name            string
	SQL             string
	DataSelectivity float64 // measured: bytes discarded before compute
	RowSelectivity  float64 // measured: rows discarded by selection
	ColSelectivity  float64 // measured: byte share of discarded columns
	BaselineTime    time.Duration
	PushdownTime    time.Duration
	Speedup         float64
	Rows            int
}

// RunQuery executes sql in both modes and measures selectivities.
func (e *Env) RunQuery(name, sql string) (MeasuredQuery, error) {
	m := MeasuredQuery{Name: name, SQL: sql}
	push, err := e.Scoop.Query(sql, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		return m, fmt.Errorf("%s (pushdown): %w", name, err)
	}
	base, err := e.Scoop.Query(sql, core.QueryOptions{Mode: core.ModeBaseline})
	if err != nil {
		return m, fmt.Errorf("%s (baseline): %w", name, err)
	}
	if len(push.Rows) != len(base.Rows) {
		return m, fmt.Errorf("%s: mode disagreement: %d vs %d rows", name, len(push.Rows), len(base.Rows))
	}
	m.Rows = len(push.Rows)
	m.DataSelectivity = push.Metrics.Selectivity(e.DatasetBytes)
	m.RowSelectivity = rowSelectivity(e, push)
	m.ColSelectivity = columnSelectivity(push)
	m.BaselineTime = base.Metrics.WallTime
	m.PushdownTime = push.Metrics.WallTime
	if push.Metrics.WallTime > 0 {
		m.Speedup = float64(base.Metrics.WallTime) / float64(push.Metrics.WallTime)
	}
	return m, nil
}

// rowSelectivity is the fraction of rows discarded by the pushed selection.
func rowSelectivity(e *Env, res *core.Result) float64 {
	if e.Rows == 0 {
		return 0
	}
	return 1 - float64(res.Metrics.RowsScanned)/float64(e.Rows)
}

// columnSelectivity estimates the byte share of discarded columns from the
// generator's average field widths.
func columnSelectivity(res *core.Result) float64 {
	widths := map[string]float64{
		"vid": 8, "date": 20, "index": 10, "sumHC": 10, "sumHP": 10,
		"type": 5, "city": 9, "state": 4, "lat": 8, "long": 8,
	}
	var total, kept float64
	for _, w := range widths {
		total += w
	}
	for _, c := range res.Plan.Required {
		kept += widths[c]
	}
	if total == 0 {
		return 0
	}
	return 1 - kept/total
}

// SimWorkload converts a measured query into a testbed-model workload at a
// target dataset size.
func (m MeasuredQuery) SimWorkload(datasetBytes float64) testbed.Workload {
	st := testbed.Mixed
	switch {
	case m.RowSelectivity > 0.5 && m.ColSelectivity < 0.3:
		st = testbed.Row
	case m.ColSelectivity > 0.5 && m.RowSelectivity < 0.3:
		st = testbed.Column
	}
	return testbed.Workload{DatasetBytes: datasetBytes, Selectivity: m.DataSelectivity, Type: st}
}

// --- text rendering helpers shared by the experiments ---

// table prints aligned columns: header row then data rows.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	printRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	printRow(t.header)
	for i, width := range widths {
		if i > 0 {
			fmt.Fprint(w, "  ")
		}
		for j := 0; j < width; j++ {
			fmt.Fprint(w, "-")
		}
	}
	fmt.Fprintln(w)
	for _, r := range t.rows {
		printRow(r)
	}
}

func f1(v float64) string  { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }
func secs(v float64) string {
	return fmt.Sprintf("%.1fs", v)
}
