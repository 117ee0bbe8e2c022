// Command scoop-sql executes SQL queries against CSV datasets in a Scoop
// object store, with the projection/selection pushdown on or off.
//
// Against a remote store started with scoopd:
//
//	scoop-sql -store http://localhost:8080 -account gp -container meters \
//	          -schema "$(scoop-sql -meter-schema)" \
//	          "SELECT vid, sum(index) AS total FROM t GROUP BY vid LIMIT 10"
//
// Or fully self-contained (builds an in-process cluster with a small
// generated dataset):
//
//	scoop-sql -demo "SELECT city, count(*) AS n FROM largeMeter GROUP BY city"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"scoop/internal/adaptive"
	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/meter"
	"scoop/internal/objectstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scoop-sql:", err)
		os.Exit(1)
	}
}

func run() error {
	store := flag.String("store", "", "store URL (empty with -demo builds an in-process store)")
	account := flag.String("account", "scoop", "store account")
	container := flag.String("container", "meters", "container holding the table's CSV objects")
	prefix := flag.String("prefix", "", "object name prefix of the table")
	schema := flag.String("schema", meter.SchemaDecl, `table schema, "name type, ..."`)
	tableName := flag.String("table", "", "table name used in the query (default: FROM clause name)")
	mode := flag.String("mode", "pushdown", "execution mode: pushdown, baseline or auto")
	compress := flag.Bool("compress", false, "pipeline transfer compression after the filter")
	explain := flag.Bool("explain", false, "print the plan instead of executing")
	demo := flag.Bool("demo", false, "build an in-process store with a generated dataset")
	demoMeters := flag.Int("demo-meters", 100, "meters in the demo dataset")
	chunk := flag.Int64("chunk", 4<<20, "partition chunk size in bytes (pushdown coalesces adjacent chunks of an object)")
	workers := flag.Int("workers", 4, "compute workers")
	printSchema := flag.Bool("meter-schema", false, "print the meter schema declaration and exit")
	flag.Parse()

	if *printSchema {
		fmt.Println(meter.SchemaDecl)
		return nil
	}
	if flag.NArg() != 1 {
		return fmt.Errorf("expected exactly one SQL query argument")
	}
	sql := flag.Arg(0)

	var qmode core.Mode
	switch *mode {
	case "pushdown":
		qmode = core.ModePushdown
	case "baseline":
		qmode = core.ModeBaseline
	case "auto":
		qmode = core.ModeAuto
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	cfg := core.Config{ChunkSize: *chunk}
	cfg.Compute.Workers = *workers
	if *store != "" {
		cfg.Client = objectstore.NewHTTPClient(*store)
		cfg.Account = *account
	} else if !*demo {
		return fmt.Errorf("either -store or -demo is required")
	}
	s, err := core.New(cfg)
	if err != nil {
		return err
	}

	table := *tableName
	if table == "" {
		table = tableFromQuery(sql)
	}
	if *demo {
		gen := meter.DefaultConfig()
		gen.Meters = *demoMeters
		gen.Days = 7
		gen.Interval = time.Hour
		size, err := s.UploadMeterDataset(context.Background(), *container, gen, 4)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "scoop-sql: demo dataset: %d rows, %d bytes\n", gen.Rows(), size)
	}
	if err := s.RegisterTable(table, *container, *prefix, *schema,
		datasource.CSVOptions{CompressTransfer: *compress}); err != nil {
		return err
	}
	if qmode == core.ModeAuto {
		ctrl, err := adaptive.NewController(adaptive.DefaultConfig())
		if err != nil {
			return err
		}
		ctrl.SetTenantClass("cli", adaptive.Gold)
		s.EnableAdaptive(ctrl, "cli")
	}

	if *explain {
		out, err := s.Explain(sql)
		if err != nil {
			return err
		}
		fmt.Print(out)
		return nil
	}
	res, err := s.Query(sql, core.QueryOptions{Mode: qmode})
	if err != nil {
		return err
	}
	fmt.Println(strings.Join(res.Schema.Names(), ","))
	for _, row := range res.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = v.AsString()
		}
		fmt.Println(strings.Join(parts, ","))
	}
	m := res.Metrics
	fmt.Fprintf(os.Stderr, "scoop-sql: mode=%s rows=%d splits=%d ingested=%dB requests=%d wall=%v\n",
		m.Mode, m.RowsReturned, m.Splits, m.BytesIngested, m.Requests, m.WallTime)
	if m.Decision != "" {
		fmt.Fprintf(os.Stderr, "scoop-sql: adaptive decision: %s\n", m.Decision)
	}
	return nil
}

// tableFromQuery pulls the FROM table name out of the query for table
// registration when -table is not given.
func tableFromQuery(sql string) string {
	fields := strings.Fields(sql)
	for i, f := range fields {
		if strings.EqualFold(f, "FROM") && i+1 < len(fields) {
			return strings.Trim(fields[i+1], ",;")
		}
	}
	return "t"
}
