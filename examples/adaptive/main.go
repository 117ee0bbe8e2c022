// Adaptive pushdown: the paper's §VII controller deciding per tenant and per
// query whether pushdown is worth it, using sampled statistics and the
// testbed cost model.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"scoop/internal/adaptive"
	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/meter"
	"scoop/internal/pushdown"
)

func main() {
	s, err := core.New(core.Config{ChunkSize: 1 << 20})
	if err != nil {
		log.Fatal(err)
	}
	gen := meter.DefaultConfig()
	gen.Meters = 120
	gen.Days = 5
	gen.Interval = time.Hour
	if _, err := s.UploadMeterDataset(context.Background(), "meters", gen, 4); err != nil {
		log.Fatal(err)
	}

	fmt.Println("== adaptive pushdown (Crystal-style controller) ==")
	rel, err := datasource.NewCSV(s.Connector(), "meters", "", meter.SchemaDecl, datasource.CSVOptions{})
	if err != nil {
		log.Fatal(err)
	}
	stats, err := adaptive.CollectStats(context.Background(), rel, 2000)
	if err != nil {
		log.Fatal(err)
	}
	ctrl, err := adaptive.NewController(adaptive.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	ctrl.SetTenantClass("gridpocket", adaptive.Gold)
	ctrl.SetTenantClass("trial-user", adaptive.Bronze)

	const datasetAtScale = 500e9 // pretend the production dataset is 500 GB
	cases := []struct {
		name  string
		cols  []string
		preds []pushdown.Predicate
	}{
		{"selective (state=FRA, 2 cols)", []string{"vid", "index"},
			[]pushdown.Predicate{{Column: "state", Op: pushdown.OpEq, Value: "FRA"}}},
		{"full scan (all columns)", nil, nil},
	}
	for _, tenant := range []string{"gridpocket", "trial-user"} {
		for _, c := range cases {
			est, err := stats.EstimateFor(datasetAtScale, c.cols, c.preds)
			if err != nil {
				log.Fatal(err)
			}
			d := ctrl.Decide(tenant, est)
			fmt.Printf("%-11s %-32s est.sel=%5.1f%%  pushdown=%-5v  (%s)\n",
				tenant, c.name, 100*est.Selectivity, d.Pushdown, d.Reason)
		}
	}

	// Under storage pressure, only gold tenants keep the privilege.
	fmt.Println("\nstorage cluster at 70% CPU:")
	ctrl.SetLoadProbe(func() float64 { return 0.70 })
	for _, tenant := range []string{"gridpocket", "trial-user"} {
		est, err := stats.EstimateFor(datasetAtScale, cases[0].cols, cases[0].preds)
		if err != nil {
			log.Fatal(err)
		}
		d := ctrl.Decide(tenant, est)
		fmt.Printf("%-11s %-32s pushdown=%-5v  (%s)\n", tenant, cases[0].name, d.Pushdown, d.Reason)
	}
}
