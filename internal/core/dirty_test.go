package core_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/experiment"
	"scoop/internal/meter"
	"scoop/internal/sql/types"
)

// Dirty GridPocket data holds short records. A field a short record lacks
// is NULL to the baseline scan, and the csv storlet writes it as an empty
// field, which the compute side must read as NULL too: every Table I query
// returns the same rows in both modes, and so do queries over a table where
// two of four records lack city.
func TestTableIAgreesOnDirtyData(t *testing.T) {
	s, err := core.New(core.Config{ChunkSize: splitSize})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := meter.DefaultConfig()
	cfg.DirtyFraction = 0.05
	cfg.Meters = 400
	cfg.Days = 30
	cfg.Start = time.Date(2014, 12, 20, 0, 0, 0, 0, time.UTC)
	cfg.Interval = 6 * time.Hour
	if _, err := s.UploadMeterDataset(ctx, "meters", cfg, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("largeMeter", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, q := range experiment.GridPocketQueries {
		push, err := s.Query(q.SQL, core.QueryOptions{Mode: core.ModePushdown})
		if err != nil {
			t.Fatalf("%s (pushdown): %v", q.Name, err)
		}
		base, err := s.Query(q.SQL, core.QueryOptions{Mode: core.ModeBaseline})
		if err != nil {
			t.Fatalf("%s (baseline): %v", q.Name, err)
		}
		if err := sameRows(push.Rows, base.Rows); err != nil || len(base.Rows) == 0 {
			t.Errorf("%s: pushdown differs from baseline (%d rows): %v", q.Name, len(base.Rows), err)
		}
	}

	if err := s.Client().CreateContainer(ctx, s.Account(), "short", nil); err != nil {
		t.Fatal(err)
	}
	const object = "V1,1,paris\nV2,2\nV3,3,rome\nV4,4\n"
	if _, err := s.Client().PutObject(ctx, s.Account(), "short", "part-0.csv", strings.NewReader(object), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("t", "short", "", "vid string, idx double, city string", datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	null, n, str := types.NullValue(), types.IntV, types.Str
	for q, want := range map[string][]types.Row{
		"SELECT count(city) AS n, count(*) AS m FROM t":                 {{n(2), n(4)}},
		"SELECT vid, city FROM t WHERE city IS NULL ORDER BY vid":       {{str("V2"), null}, {str("V4"), null}},
		"SELECT city, count(*) AS n FROM t GROUP BY city ORDER BY city": {{null, n(2)}, {str("paris"), n(1)}, {str("rome"), n(1)}},
		// An empty field is NULL, so it equals no string and matches no pattern.
		"SELECT count(*) AS n FROM t WHERE city = ''":     {{n(0)}},
		"SELECT count(*) AS n FROM t WHERE city <> 'x'":   {{n(2)}},
		"SELECT count(*) AS n FROM t WHERE city LIKE '%'": {{n(2)}},
	} {
		for _, mode := range []core.Mode{core.ModePushdown, core.ModeBaseline} {
			res, err := s.Query(q, core.QueryOptions{Mode: mode})
			if err != nil {
				t.Fatalf("%s (%v): %v", q, mode, err)
			}
			if err := sameRows(res.Rows, want); err != nil {
				t.Errorf("%s (%v): %v", q, mode, err)
			}
		}
	}
}
