package adaptive

import (
	"context"
	"strings"
	"testing"

	"scoop/internal/connector"
	"scoop/internal/datasource"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet/csvfilter"
	"scoop/internal/testbed"
)

const meterSchema = "vid string, date string, index double, city string, state string"

func newController(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Model: testbed.OSIC(), MinSpeedup: 0, MaxStorageCPU: 0.5, CriticalStorageCPU: 0.8},
		{Model: testbed.OSIC(), MinSpeedup: 1, MaxStorageCPU: 0, CriticalStorageCPU: 0.8},
		{Model: testbed.OSIC(), MinSpeedup: 1, MaxStorageCPU: 0.9, CriticalStorageCPU: 0.5},
		{Model: testbed.OSIC(), MinSpeedup: 1, MaxStorageCPU: 0.5, CriticalStorageCPU: 1.5},
	}
	for i, cfg := range bad {
		if _, err := NewController(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestClassString(t *testing.T) {
	if Gold.String() != "gold" || Silver.String() != "silver" || Bronze.String() != "bronze" {
		t.Error("class names")
	}
}

func TestBronzeNeverPushes(t *testing.T) {
	c := newController(t)
	c.SetTenantClass("cheap", Bronze)
	d := c.Decide("cheap", Estimate{DatasetBytes: 3e12, Selectivity: 0.99, Type: testbed.Row})
	if d.Pushdown {
		t.Errorf("bronze pushed down: %+v", d)
	}
}

func TestLowSelectivityNotWorthIt(t *testing.T) {
	c := newController(t)
	d := c.Decide("anyone", Estimate{DatasetBytes: 500e9, Selectivity: 0.0, Type: testbed.Mixed})
	if d.Pushdown {
		t.Errorf("zero selectivity pushed down: %+v", d)
	}
	if !strings.Contains(d.Reason, "below") {
		t.Errorf("reason = %q", d.Reason)
	}
}

func TestHighSelectivityPushes(t *testing.T) {
	c := newController(t)
	d := c.Decide("anyone", Estimate{DatasetBytes: 500e9, Selectivity: 0.95, Type: testbed.Row})
	if !d.Pushdown {
		t.Errorf("high selectivity refused: %+v", d)
	}
	if d.PredictedSpeedup < 5 {
		t.Errorf("predicted S_Q = %v", d.PredictedSpeedup)
	}
}

func TestLoadSheddingByClass(t *testing.T) {
	c := newController(t)
	c.SetTenantClass("vip", Gold)
	c.SetTenantClass("reg", Silver)
	est := Estimate{DatasetBytes: 500e9, Selectivity: 0.95, Type: testbed.Row}

	// Moderate load: gold keeps pushdown, silver loses it.
	c.SetLoadProbe(func() float64 { return 0.70 })
	if d := c.Decide("vip", est); !d.Pushdown {
		t.Errorf("gold refused under moderate load: %+v", d)
	}
	if d := c.Decide("reg", est); d.Pushdown {
		t.Errorf("silver pushed under moderate load: %+v", d)
	}
	// Critical load: everyone ingests.
	c.SetLoadProbe(func() float64 { return 0.90 })
	if d := c.Decide("vip", est); d.Pushdown {
		t.Errorf("gold pushed under critical load: %+v", d)
	}
	// Nil probe resets to idle.
	c.SetLoadProbe(nil)
	if d := c.Decide("reg", est); !d.Pushdown {
		t.Errorf("idle cluster refused: %+v", d)
	}
}

func TestInvalidEstimate(t *testing.T) {
	c := newController(t)
	if d := c.Decide("x", Estimate{DatasetBytes: -1}); d.Pushdown {
		t.Error("invalid estimate accepted")
	}
}

// --- statistics ---

func statsFixture(t *testing.T) *TableStats {
	t.Helper()
	oc, err := objectstore.NewCluster(objectstore.DefaultClusterConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := oc.Engine().Register(csvfilter.New()); err != nil {
		t.Fatal(err)
	}
	cl := oc.Client()
	_ = cl.CreateContainer(context.Background(), "gp", "meters", nil)
	conn := connector.New(cl, "gp", 0)
	var sb strings.Builder
	// 100 rows: 20% FRA, 10% in 2015-02, vid uniform.
	for i := 0; i < 100; i++ {
		state := "NED"
		if i%5 == 0 {
			state = "FRA"
		}
		month := "01"
		if i%10 == 0 {
			month = "02"
		}
		sb.WriteString(strings.Join([]string{
			// Zero-padded vid keeps lexicographic order.
			"V" + string(rune('0'+i/10)) + string(rune('0'+i%10)),
			"2015-" + month + "-15 00:00:00",
			"10.5",
			"Paris",
			state,
		}, ","))
		sb.WriteByte('\n')
	}
	if _, err := conn.Upload(context.Background(), "meters", "s.csv", strings.NewReader(sb.String())); err != nil {
		t.Fatal(err)
	}
	rel, err := datasource.NewCSV(conn, "meters", "", meterSchema, datasource.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := CollectStats(context.Background(), rel, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCollectStats(t *testing.T) {
	st := statsFixture(t)
	if st.Rows() != 100 {
		t.Fatalf("rows = %d", st.Rows())
	}
}

func TestPredicateSelectivityEstimate(t *testing.T) {
	st := statsFixture(t)
	sel, err := st.PredicateSelectivity([]pushdown.Predicate{
		{Column: "state", Op: pushdown.OpEq, Value: "FRA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0.75 || sel > 0.85 { // 20% kept
		t.Errorf("state=FRA selectivity = %v, want ≈0.8", sel)
	}
	sel, err = st.PredicateSelectivity([]pushdown.Predicate{
		{Column: "date", Op: pushdown.OpLike, Value: "2015-02%"},
		{Column: "state", Op: pushdown.OpEq, Value: "FRA"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0.85 { // conjunction discards more
		t.Errorf("conjunction selectivity = %v", sel)
	}
	if s, err := st.PredicateSelectivity(nil); err != nil || s != 0 {
		t.Errorf("empty preds = %v, %v", s, err)
	}
	if _, err := st.PredicateSelectivity([]pushdown.Predicate{{Column: "ghost", Op: pushdown.OpEq}}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestProjectionSelectivityEstimate(t *testing.T) {
	st := statsFixture(t)
	sel, err := st.ProjectionSelectivity([]string{"vid"})
	if err != nil {
		t.Fatal(err)
	}
	if sel < 0.5 { // vid is a small share of the row
		t.Errorf("vid-only projection selectivity = %v", sel)
	}
	all, err := st.ProjectionSelectivity([]string{"vid", "date", "index", "city", "state"})
	if err != nil || all > 0.01 {
		t.Errorf("full projection selectivity = %v, %v", all, err)
	}
	if s, err := st.ProjectionSelectivity(nil); err != nil || s != 0 {
		t.Errorf("no projection = %v, %v", s, err)
	}
	// Duplicate columns counted once.
	dup, _ := st.ProjectionSelectivity([]string{"vid", "vid"})
	single, _ := st.ProjectionSelectivity([]string{"vid"})
	if dup != single {
		t.Errorf("duplicate column changed estimate: %v vs %v", dup, single)
	}
	if _, err := st.ProjectionSelectivity([]string{"ghost"}); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestEstimateForAndEndToEndDecision(t *testing.T) {
	st := statsFixture(t)
	est, err := st.EstimateFor(500e9,
		[]string{"vid", "index"},
		[]pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}})
	if err != nil {
		t.Fatal(err)
	}
	if est.Selectivity < 0.9 {
		t.Errorf("combined selectivity = %v", est.Selectivity)
	}
	c := newController(t)
	d := c.Decide("analyst", est)
	if !d.Pushdown {
		t.Errorf("decision = %+v", d)
	}
	// A full-scan query over the same table should be refused.
	full, err := st.EstimateFor(500e9, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.Decide("analyst", full); d.Pushdown {
		t.Errorf("full scan pushed down: %+v", d)
	}
}

func TestDataSelectivityCombines(t *testing.T) {
	st := statsFixture(t)
	rowOnly, _ := st.DataSelectivity(nil, []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}})
	colOnly, _ := st.DataSelectivity([]string{"vid"}, nil)
	both, _ := st.DataSelectivity([]string{"vid"}, []pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}})
	if !(both > rowOnly && both > colOnly) {
		t.Errorf("combined %v should exceed row %v and col %v", both, rowOnly, colOnly)
	}
}
