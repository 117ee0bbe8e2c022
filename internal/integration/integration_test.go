// Package integration exercises the whole system across package
// boundaries: the disaggregated deployment over real HTTP, failure
// injection against replicas, and randomized equivalence between the
// pushdown and ingest-then-compute paths.
package integration

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/meter"
	"scoop/internal/objectstore"
)

// newHTTPDeployment stands up the full disaggregated topology: a store
// cluster behind an HTTP server ("storage cluster") and a Scoop instance
// talking to it through HTTPClient ("compute cluster").
func newHTTPDeployment(t *testing.T) (*objectstore.Cluster, *core.Scoop) {
	t.Helper()
	cluster, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := core.RegisterStandardFilters(cluster.Engine()); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(objectstore.NewHandler(cluster.Client()))
	t.Cleanup(srv.Close)

	s, err := core.New(core.Config{
		Client:    objectstore.NewHTTPClient(srv.URL),
		Account:   "gp",
		ChunkSize: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cluster, s
}

func uploadDataset(t *testing.T, s *core.Scoop) (meter.Config, int64) {
	t.Helper()
	gen := meter.DefaultConfig()
	gen.Meters = 40
	gen.Days = 4
	gen.Interval = time.Hour
	size, err := s.UploadMeterDataset(context.Background(), "meters", gen, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("largeMeter", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	return gen, size
}

func TestDisaggregatedHTTPQuery(t *testing.T) {
	_, s := newHTTPDeployment(t)
	gen, size := uploadDataset(t, s)

	q := "SELECT city, count(*) AS n, sum(index) AS total FROM largeMeter WHERE state LIKE 'FRA' GROUP BY city ORDER BY city"
	push, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	base, err := s.Query(q, core.QueryOptions{Mode: core.ModeBaseline})
	if err != nil {
		t.Fatal(err)
	}
	if len(push.Rows) != len(base.Rows) {
		t.Fatalf("row mismatch over HTTP: %d vs %d", len(push.Rows), len(base.Rows))
	}
	if push.Metrics.BytesIngested >= base.Metrics.BytesIngested {
		t.Errorf("pushdown moved %d bytes vs baseline %d over HTTP",
			push.Metrics.BytesIngested, base.Metrics.BytesIngested)
	}
	if base.Metrics.BytesIngested < size {
		t.Errorf("baseline ingested %d < dataset %d", base.Metrics.BytesIngested, size)
	}
	// Total row count is exact across HTTP-ranged partitions.
	cnt, err := s.Query("SELECT count(*) AS n FROM largeMeter", core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if cnt.Rows[0][0].I != gen.Rows() {
		t.Errorf("count over HTTP = %v, want %d", cnt.Rows[0][0], gen.Rows())
	}
}

func TestReplicaFailoverDuringQueries(t *testing.T) {
	cluster, s := newHTTPDeployment(t)
	uploadDataset(t, s)
	q := "SELECT count(*) AS n FROM largeMeter WHERE state LIKE 'U%'"
	before, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	// Take one object node down: every object still has replicas elsewhere.
	cluster.Nodes()[0].SetDown(true)
	after, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatalf("query with a node down: %v", err)
	}
	if before.Rows[0][0].I != after.Rows[0][0].I {
		t.Errorf("results diverged after failover: %v vs %v", before.Rows[0][0], after.Rows[0][0])
	}
	// All nodes down: the query must fail, not hang or fabricate data.
	for _, n := range cluster.Nodes() {
		n.SetDown(true)
	}
	if _, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown}); err == nil {
		t.Error("query succeeded with every node down")
	}
	// Recovery.
	for _, n := range cluster.Nodes() {
		n.SetDown(false)
	}
	if _, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown}); err != nil {
		t.Errorf("query after recovery: %v", err)
	}
}

// TestRandomizedModeEquivalence generates random selections/projections/
// aggregations and checks that the pushdown path and the ingest-then-compute
// path return identical results — the invariant the whole system hangs on.
func TestRandomizedModeEquivalence(t *testing.T) {
	s, err := core.New(core.Config{ChunkSize: 32 << 10})
	if err != nil {
		t.Fatal(err)
	}
	gen := meter.DefaultConfig()
	gen.Meters = 30
	gen.Days = 3
	gen.Interval = time.Hour
	if _, err := s.UploadMeterDataset(context.Background(), "meters", gen, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("m", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	cols := []string{"vid", "date", "index", "sumHC", "sumHP", "type", "city", "state"}
	strCols := []string{"vid", "date", "type", "city", "state"}
	numCols := []string{"index", "sumHC", "sumHP"}
	values := map[string][]string{
		"vid":   {"V000005", "V000010", "V000020"},
		"date":  {"2015-01-01%", "2015-01-02%", "2015-01-%"},
		"type":  {"elec", "gas", "water"},
		"city":  {"Rotterdam", "Paris", "Kyiv"},
		"state": {"FRA", "NED", "U%"},
	}
	ops := []string{"=", "<>", "<", ">=", "LIKE"}

	randPredicate := func() string {
		if rng.Intn(3) == 0 {
			c := numCols[rng.Intn(len(numCols))]
			return fmt.Sprintf("%s %s %d", c, []string{"<", ">", ">="}[rng.Intn(3)], 1000+rng.Intn(100000))
		}
		c := strCols[rng.Intn(len(strCols))]
		op := ops[rng.Intn(len(ops))]
		v := values[c][rng.Intn(len(values[c]))]
		if op != "LIKE" {
			v = strings.ReplaceAll(v, "%", "")
		}
		return fmt.Sprintf("%s %s '%s'", c, op, v)
	}

	for trial := 0; trial < 25; trial++ {
		var sb strings.Builder
		agg := rng.Intn(2) == 0
		if agg {
			key := cols[rng.Intn(len(cols))]
			sb.WriteString(fmt.Sprintf("SELECT %s, count(*) AS n, sum(index) AS s FROM m", key))
			where := ""
			for i := 0; i < rng.Intn(3); i++ {
				if where == "" {
					where = " WHERE " + randPredicate()
				} else {
					where += " AND " + randPredicate()
				}
			}
			sb.WriteString(where)
			sb.WriteString(fmt.Sprintf(" GROUP BY %s ORDER BY %s", key, key))
		} else {
			proj := cols[rng.Intn(len(cols))]
			proj2 := cols[rng.Intn(len(cols))]
			sb.WriteString(fmt.Sprintf("SELECT %s, %s FROM m", proj, proj2))
			where := ""
			for i := 0; i < 1+rng.Intn(2); i++ {
				if where == "" {
					where = " WHERE " + randPredicate()
				} else {
					where += " AND " + randPredicate()
				}
			}
			sb.WriteString(where)
			sb.WriteString(fmt.Sprintf(" ORDER BY %s, %s LIMIT 50", proj, proj2))
		}
		q := sb.String()
		push, err := s.Query(q, core.QueryOptions{Mode: core.ModePushdown})
		if err != nil {
			t.Fatalf("trial %d pushdown %q: %v", trial, q, err)
		}
		base, err := s.Query(q, core.QueryOptions{Mode: core.ModeBaseline})
		if err != nil {
			t.Fatalf("trial %d baseline %q: %v", trial, q, err)
		}
		if len(push.Rows) != len(base.Rows) {
			t.Fatalf("trial %d %q: %d vs %d rows", trial, q, len(push.Rows), len(base.Rows))
		}
		for i := range push.Rows {
			for j := range push.Rows[i] {
				a, b := push.Rows[i][j], base.Rows[i][j]
				if a.IsNull() != b.IsNull() || (!a.IsNull() && a.Compare(b) != 0) {
					t.Fatalf("trial %d %q row %d col %d: %v vs %v", trial, q, i, j, a, b)
				}
			}
		}
	}
}

func TestCompressedTransferEndToEnd(t *testing.T) {
	s, err := core.New(core.Config{ChunkSize: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	gen := meter.DefaultConfig()
	gen.Meters = 40
	gen.Days = 3
	gen.Interval = time.Hour
	size, err := s.UploadMeterDataset(context.Background(), "meters", gen, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("plain", "meters", "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterTable("zipped", "meters", "", meter.SchemaDecl,
		datasource.CSVOptions{CompressTransfer: true}); err != nil {
		t.Fatal(err)
	}
	// A low-selectivity query: filtering saves little, compression a lot.
	qp, err := s.Query("SELECT * FROM plain", core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	qz, err := s.Query("SELECT * FROM zipped", core.QueryOptions{Mode: core.ModePushdown})
	if err != nil {
		t.Fatal(err)
	}
	if len(qp.Rows) != len(qz.Rows) {
		t.Fatalf("rows: %d vs %d", len(qp.Rows), len(qz.Rows))
	}
	if qz.Metrics.BytesIngested >= qp.Metrics.BytesIngested/2 {
		t.Errorf("compressed %d vs plain %d of dataset %d",
			qz.Metrics.BytesIngested, qp.Metrics.BytesIngested, size)
	}
}
