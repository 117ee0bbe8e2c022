// Package core is the public face of the Scoop reproduction: it wires the
// object store (with its storlet engine), the Stocator-like connector, the
// Catalyst-style planner, the data sources and the mini-Spark driver into a
// single queriable system.
//
// The headline call is Query: parse SQL, extract the pushable projection and
// selection (the pushdown task), fan parallel ranged GETs out over the
// dataset's partitions — tagged with the task in pushdown mode, raw in
// baseline mode — and run the residual plan (aggregation, ordering) on the
// compute side. Modes differ only in *where* filtering happens, which is
// precisely the variable the paper's evaluation isolates.
package core

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"scoop/internal/adaptive"
	"scoop/internal/compute"
	"scoop/internal/connector"
	"scoop/internal/datasource"
	"scoop/internal/meter"
	"scoop/internal/objectstore"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
	"scoop/internal/storlet/compressfilter"
	"scoop/internal/storlet/csvfilter"
	"scoop/internal/storlet/etl"
)

// Mode selects where filtering executes.
type Mode int

const (
	// ModePushdown delegates projection/selection to the object store.
	ModePushdown Mode = iota
	// ModeBaseline ingests raw data and filters at the compute side — the
	// classic ingest-then-compute flow.
	ModeBaseline
	// ModeAuto lets the adaptive controller decide per query (paper §VII);
	// requires EnableAdaptive and an analyzed table.
	ModeAuto
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModePushdown:
		return "pushdown"
	case ModeAuto:
		return "auto"
	default:
		return "baseline"
	}
}

// Config assembles a Scoop instance.
type Config struct {
	// Client is an existing store client; nil builds an in-process cluster
	// from Cluster (with the CSV and ETL filters pre-deployed).
	Client  objectstore.Client
	Cluster objectstore.ClusterConfig
	// Account scopes all containers (default "scoop").
	Account string
	// ChunkSize is the partition-discovery split size (default 64 MiB —
	// keep it small in tests to force parallelism). Baseline queries read
	// splits of this size; pushdown queries coalesce adjacent splits of an
	// object down to the driver's in-flight window (connector.Coalesce).
	ChunkSize int64
	// Compute sizes the worker pool.
	Compute compute.Config
}

// Scoop is the assembled system.
type Scoop struct {
	cluster *objectstore.Cluster // nil when Client was provided
	client  objectstore.Client
	conn    *connector.Connector
	driver  *compute.Driver

	mu     sync.RWMutex
	tables map[string]tableDef

	ctrl   *adaptive.Controller
	tenant string
}

type tableDef struct {
	container string
	prefix    string
	decl      string
	opts      datasource.CSVOptions
	stats     *adaptive.TableStats // set by AnalyzeTable, used by ModeAuto
}

// newRelation constructs the table's relation for the given execution mode.
func (d tableDef) newRelation(conn *connector.Connector, pushdownMode bool) (*datasource.CSVRelation, error) {
	opts := d.opts
	opts.Pushdown = pushdownMode
	return datasource.NewCSV(conn, d.container, d.prefix, d.decl, opts)
}

// RegisterStandardFilters deploys the stock filter set on a store's engine:
// the in-process cluster New builds, scoopd's and the benchmark's.
func RegisterStandardFilters(e *storlet.Engine) error {
	filters := []storlet.Filter{
		csvfilter.New(),
		etl.NewCleanse(),
		etl.NewSplit(),
		compressfilter.New(),
	}
	for _, f := range filters {
		if err := e.Register(f); err != nil {
			return err
		}
	}
	return nil
}

// New assembles a Scoop instance.
func New(cfg Config) (*Scoop, error) {
	if cfg.Account == "" {
		cfg.Account = "scoop"
	}
	if cfg.Compute.Workers == 0 {
		cfg.Compute = compute.DefaultConfig()
	}
	s := &Scoop{tables: make(map[string]tableDef)}
	if cfg.Client != nil {
		s.client = cfg.Client
	} else {
		cc := cfg.Cluster
		if cc.Proxies == 0 {
			cc = objectstore.DefaultClusterConfig()
		}
		cluster, err := objectstore.NewCluster(cc)
		if err != nil {
			return nil, err
		}
		if err := RegisterStandardFilters(cluster.Engine()); err != nil {
			return nil, err
		}
		s.cluster = cluster
		s.client = cluster.Client()
	}
	s.conn = connector.New(s.client, cfg.Account, cfg.ChunkSize)
	driver, err := compute.NewDriver(cfg.Compute)
	if err != nil {
		return nil, err
	}
	s.driver = driver
	return s, nil
}

// Cluster returns the in-process cluster, or nil when an external client is
// in use. It exposes node/proxy statistics for experiments.
func (s *Scoop) Cluster() *objectstore.Cluster { return s.cluster }

// Client returns the store client.
func (s *Scoop) Client() objectstore.Client { return s.client }

// Connector returns the storage connector (ingestion statistics live here).
func (s *Scoop) Connector() *connector.Connector { return s.conn }

// Account returns the account all tables live under.
func (s *Scoop) Account() string { return s.conn.Account() }

// RegisterTable maps a SQL table name to CSV data under container/prefix
// with the declared schema. Query-time mode overrides opts.Pushdown.
func (s *Scoop) RegisterTable(name, container, prefix, schemaDecl string, opts datasource.CSVOptions) error {
	if name == "" {
		return fmt.Errorf("core: empty table name")
	}
	if _, err := types.ParseSchema(schemaDecl); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	key := strings.ToLower(name)
	if _, dup := s.tables[key]; dup {
		return fmt.Errorf("core: table %q already registered", name)
	}
	s.tables[key] = tableDef{container: container, prefix: prefix, decl: schemaDecl, opts: opts}
	return nil
}

// EnableAdaptive installs a controller consulted by ModeAuto queries; the
// tenant name is what the controller's class policy keys on.
func (s *Scoop) EnableAdaptive(ctrl *adaptive.Controller, tenant string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ctrl = ctrl
	s.tenant = tenant
}

// AnalyzeTable samples the table and stores column statistics for the
// adaptive controller's selectivity estimates (ANALYZE, in SQL terms).
func (s *Scoop) AnalyzeTable(ctx context.Context, name string, maxRows int) error {
	s.mu.RLock()
	def, ok := s.tables[strings.ToLower(name)]
	s.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: unknown table %q", name)
	}
	rel, err := def.newRelation(s.conn, false)
	if err != nil {
		return err
	}
	stats, err := adaptive.CollectStats(ctx, rel, maxRows)
	if err != nil {
		return err
	}
	s.mu.Lock()
	def.stats = stats
	s.tables[strings.ToLower(name)] = def
	s.mu.Unlock()
	return nil
}

// Metrics describes one query execution.
type Metrics struct {
	Mode Mode
	// Decision explains a ModeAuto verdict (empty otherwise).
	Decision string
	// WallTime is end-to-end query latency at the client.
	WallTime time.Duration
	// BytesIngested is the data moved from the store to compute for this
	// query — the quantity pushdown shrinks.
	BytesIngested int64
	// Requests is the number of object GETs issued, those the store refused
	// included.
	Requests int64
	// Splits is the partition count.
	Splits int
	// RowsScanned is the number of rows delivered by the data source.
	RowsScanned int64
	// RowsReturned is the final result cardinality.
	RowsReturned int
	// Compute summarizes the task execution.
	Compute compute.Stats
}

// Selectivity returns the fraction of the dataset's bytes discarded before
// reaching compute, given the dataset size. (Query data selectivity in the
// paper's terminology.)
func (m Metrics) Selectivity(datasetBytes int64) float64 {
	if datasetBytes <= 0 {
		return 0
	}
	f := 1 - float64(m.BytesIngested)/float64(datasetBytes)
	if f < 0 {
		return 0
	}
	return f
}

// Result is a completed query.
type Result struct {
	Schema  *types.Schema
	Rows    []types.Row
	Plan    *plan.Plan
	Metrics Metrics
}

// QueryOptions tune a single query.
type QueryOptions struct {
	// Mode selects pushdown or baseline execution.
	Mode Mode
	// Context cancels the job (nil = background).
	Context context.Context
}

// ctx returns the query's context, defaulting to Background.
func (o QueryOptions) ctx() context.Context {
	if o.Context != nil {
		return o.Context
	}
	return context.Background()
}

// splitResult is what one task of Query returns: the partial result over its
// split and the number of rows the data source delivered for it.
type splitResult struct {
	partial *exec.Partial
	rows    int64
}

// iterator is a split's stream of rows, or of partial records' fields.
type iterator[T any] interface {
	Next() (T, error)
	Close() error
}

// scanSplit opens a split's iterator and folds everything it yields, counting
// the items in rows. The open returns once the response headers are in: the
// task waits out the round trip without its worker slot.
func scanSplit[T any, I iterator[T]](ctx context.Context, open func() (I, error), fold func(T) error, rows *int64) error {
	var it I
	opened := false
	err := compute.Blocking(ctx, func() (err error) {
		it, err = open()
		opened = err == nil
		return err
	})
	if opened {
		defer it.Close()
	}
	if err != nil {
		return err
	}
	for {
		// The body read fails once ctx is cancelled; checking every
		// 1 024 records keeps a job's tasks off the context's lock.
		if *rows%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		r, err := it.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		*rows++
		if err := fold(r); err != nil {
			return err
		}
	}
}

// analyze parses a SELECT, finds its table and plans the query over the
// table's schema.
func (s *Scoop) analyze(sql string) (tableDef, *plan.Plan, error) {
	sel, err := parser.Parse(sql)
	if err != nil {
		return tableDef{}, nil, err
	}
	s.mu.RLock()
	def, ok := s.tables[strings.ToLower(sel.Table)]
	s.mu.RUnlock()
	if !ok {
		return tableDef{}, nil, fmt.Errorf("core: unknown table %q", sel.Table)
	}
	schema, err := types.ParseSchema(def.decl)
	if err != nil {
		return tableDef{}, nil, err
	}
	p, err := plan.Analyze(sel, schema, plan.Options{})
	if err != nil {
		return tableDef{}, nil, err
	}
	return def, p, nil
}

// Query parses and executes a SQL SELECT against a registered table. Every
// task folds its split's rows into a partial result as they arrive — or, when
// the plan's aggregation runs at the store, merges the store's partial
// records — and the driver merges and finishes the partials.
func (s *Scoop) Query(sql string, opts QueryOptions) (*Result, error) {
	start := time.Now()
	qctx := opts.ctx()
	def, p, err := s.analyze(sql)
	if err != nil {
		return nil, err
	}

	effMode := opts.Mode
	decision := ""
	if opts.Mode == ModeAuto {
		var err error
		effMode, decision, err = s.decideMode(qctx, p.Sel.Table, def, p)
		if err != nil {
			return nil, err
		}
	}

	rel, err := def.newRelation(s.conn, effMode == ModePushdown)
	if err != nil {
		return nil, err
	}
	splits, err := rel.Splits(qctx)
	if err != nil {
		return nil, err
	}
	if effMode == ModePushdown {
		// The store filters, so a split sends back a fraction of its bytes:
		// fewer, larger splits, as many as the driver keeps in flight. A
		// baseline task parses every byte it fetches and keeps chunk splits.
		splits = connector.Coalesce(splits, 2*s.driver.Workers()-1)
	}

	pushdownMode := effMode == ModePushdown
	// scan folds a split's rows into a fresh partial, so that a retried
	// task, or a split read again the baseline way, starts from an empty
	// one.
	scan := func(ctx context.Context, split connector.Split, fallback bool) (splitResult, error) {
		out := splitResult{partial: exec.NewPartial(p)}
		var err error
		switch {
		case fallback:
			err = scanSplit(ctx, func() (exec.Iterator, error) {
				return rel.ScanFallback(ctx, split, p.Required, p.Pushed)
			}, out.partial.Fold, &out.rows)
		case pushdownMode && p.StoreAgg != nil:
			err = scanSplit(ctx, func() (exec.CellIterator, error) {
				return rel.ScanPartials(ctx, split, p.Required, p.Pushed, p.StoreAgg)
			}, out.partial.MergeCells, &out.rows)
		default:
			err = scanSplit(ctx, func() (exec.Iterator, error) {
				return rel.ScanPrunedFiltered(ctx, split, p.Required, p.Pushed)
			}, out.partial.Fold, &out.rows)
		}
		return out, err
	}
	before := s.conn.Stats()
	tasks := make([]compute.Task, len(splits))
	for i, split := range splits {
		split := split
		tasks[i] = func(ctx context.Context) (any, error) {
			out, err := scan(ctx, split, false)
			// The degradation ladder's last rung (DESIGN §8): a pushdown
			// read the store refused or aborted, before its first byte or
			// mid-stream, is read again the baseline way. Nothing of the
			// failed read is kept.
			if err != nil && pushdownMode && storlet.Classify(err).Fallback && ctx.Err() == nil {
				out, err = scan(ctx, split, true)
			}
			if err != nil {
				return nil, err
			}
			return out, nil
		}
	}
	results, cstats, err := s.driver.Run(qctx, tasks)
	if err != nil {
		return nil, err
	}
	// Merge in split order, never completion order. Sums are exact, so the
	// order fixes only first_value and the first-appearance order of groups,
	// whatever the worker count and whichever task finished first.
	merged := exec.NewPartial(p)
	var scanned int64
	for _, v := range results {
		sr := v.(splitResult)
		scanned += sr.rows
		merged.Merge(sr.partial)
	}
	res, err := merged.Finish()
	if err != nil {
		return nil, err
	}
	after := s.conn.Stats()
	return &Result{
		Schema: res.Schema,
		Rows:   res.Rows,
		Plan:   p,
		Metrics: Metrics{
			Mode:          effMode,
			Decision:      decision,
			WallTime:      time.Since(start),
			BytesIngested: after.BytesIngested - before.BytesIngested,
			Requests:      after.Requests - before.Requests,
			Splits:        len(splits),
			RowsScanned:   scanned,
			RowsReturned:  len(res.Rows),
			Compute:       cstats,
		},
	}, nil
}

// decideMode consults the adaptive controller for a ModeAuto query, lazily
// sampling table statistics on first use.
func (s *Scoop) decideMode(ctx context.Context, table string, def tableDef, p *plan.Plan) (Mode, string, error) {
	s.mu.RLock()
	ctrl, tenant := s.ctrl, s.tenant
	s.mu.RUnlock()
	if ctrl == nil {
		return ModePushdown, "", fmt.Errorf("core: ModeAuto requires EnableAdaptive")
	}
	if def.stats == nil {
		if err := s.AnalyzeTable(ctx, table, 2000); err != nil {
			return ModePushdown, "", err
		}
		s.mu.RLock()
		def = s.tables[strings.ToLower(table)]
		s.mu.RUnlock()
	}
	// Dataset size from the container listing.
	objects, err := s.client.ListObjects(ctx, s.Account(), def.container, def.prefix)
	if err != nil {
		return ModePushdown, "", err
	}
	var bytes float64
	for _, o := range objects {
		bytes += float64(o.Size)
	}
	if bytes == 0 {
		return ModeBaseline, "empty dataset", nil
	}
	est, err := def.stats.EstimateFor(bytes, p.Required, p.Pushed)
	if err != nil {
		return ModePushdown, "", err
	}
	d := ctrl.Decide(tenant, est)
	if d.Pushdown {
		return ModePushdown, d.Reason, nil
	}
	return ModeBaseline, d.Reason, nil
}

// Explain returns the analyzed plan description without executing.
func (s *Scoop) Explain(sql string) (string, error) {
	_, p, err := s.analyze(sql)
	if err != nil {
		return "", err
	}
	return p.Describe(), nil
}

// UploadMeterDataset generates a synthetic GridPocket dataset and uploads it
// as `objects` CSV objects under container (created if missing). It returns
// the total bytes stored — the dataset size experiments report selectivity
// against.
func (s *Scoop) UploadMeterDataset(ctx context.Context, container string, cfg meter.Config, objects int) (int64, error) {
	if objects < 1 {
		objects = 1
	}
	err := s.client.CreateContainer(ctx, s.Account(), container, nil)
	if err != nil && err != objectstore.ErrContainerExists {
		return 0, err
	}
	// Render the whole dataset once, then slice it into objects on record
	// boundaries.
	var sb strings.Builder
	if _, err := cfg.WriteCSV(&sb); err != nil {
		return 0, err
	}
	data := sb.String()
	var total int64
	chunk := len(data) / objects
	startOff := 0
	for i := 0; i < objects; i++ {
		end := startOff + chunk
		if i == objects-1 {
			end = len(data)
		} else {
			// Advance to the next record boundary.
			for end < len(data) && data[end-1] != '\n' {
				end++
			}
		}
		if end > len(data) {
			end = len(data)
		}
		if startOff >= end {
			break
		}
		name := fmt.Sprintf("part-%04d.csv", i)
		info, err := s.client.PutObject(ctx, s.Account(), container, name, strings.NewReader(data[startOff:end]), nil)
		if err != nil {
			return total, err
		}
		total += info.Size
		startOff = end
	}
	return total, nil
}
