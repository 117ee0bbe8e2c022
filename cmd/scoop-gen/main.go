// Command scoop-gen generates synthetic GridPocket-like smart-meter CSV
// datasets (the structural stand-in for the paper's anonymized data) and
// writes them to a file or uploads them to a running store.
//
// Usage:
//
//	scoop-gen -meters 10000 -days 31 -o dataset.csv
//	scoop-gen -meters 1000 -days 31 -store http://localhost:8080 \
//	          -account gp -container meters -objects 8
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"scoop/internal/core"
	"scoop/internal/meter"
	"scoop/internal/objectstore"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "scoop-gen:", err)
		os.Exit(1)
	}
}

func run() error {
	meters := flag.Int("meters", 1000, "number of smart meters")
	days := flag.Int("days", 31, "days of readings")
	interval := flag.Duration("interval", 10*time.Minute, "reading interval")
	seed := flag.Int64("seed", 1, "generator seed")
	header := flag.Bool("header", false, "emit a header record")
	dirty := flag.Float64("dirty", 0, "fraction of malformed rows (for ETL demos)")
	out := flag.String("o", "", "output file (default stdout)")
	store := flag.String("store", "", "store URL; upload instead of writing a file")
	account := flag.String("account", "scoop", "store account")
	container := flag.String("container", "meters", "store container")
	objects := flag.Int("objects", 1, "number of objects to split the upload into")
	flag.Parse()

	cfg := meter.Config{
		Meters:        *meters,
		Start:         time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC),
		Days:          *days,
		Interval:      *interval,
		Seed:          *seed,
		Header:        *header,
		DirtyFraction: *dirty,
	}
	fmt.Fprintf(os.Stderr, "scoop-gen: %d meters x %d readings = %d rows\n",
		cfg.Meters, cfg.ReadingsPerMeter(), cfg.Rows())

	if *store != "" {
		return upload(cfg, *store, *account, *container, *objects)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	n, err := cfg.WriteCSV(w)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scoop-gen: wrote %d bytes\n", n)
	return nil
}

func upload(cfg meter.Config, store, account, container string, objects int) error {
	s, err := core.New(core.Config{Client: objectstore.NewHTTPClient(store), Account: account})
	if err != nil {
		return err
	}
	total, err := s.UploadMeterDataset(context.Background(), container, cfg, objects) // one-shot CLI upload
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "scoop-gen: uploaded %d bytes total\n", total)
	return nil
}
