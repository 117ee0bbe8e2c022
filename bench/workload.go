package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"time"

	"scoop/internal/compute"
	"scoop/internal/core"
	"scoop/internal/datasource"
	"scoop/internal/experiment"
	"scoop/internal/meter"
	"scoop/internal/objectstore"
)

const (
	queryContainer  = "meters"
	ingestContainer = "ingest"
	tableName       = "largeMeter"
	// rangeCheckBytes is the size of the ranged GET that follows every
	// checkEvery-th PUT of the ingest workload.
	rangeCheckBytes = 64 << 10
)

// scale sizes the inputs. fullScale is the benchmark; the smoke test runs
// the same code on a fraction of it.
type scale struct {
	// meters and interval size the GridPocket dataset: one reading per meter
	// per interval over twelve months from July 2014, so that January 2015,
	// which every Table I query selects, is a twelfth of the rows.
	meters   int
	interval time.Duration
	// objects is the number of part objects of the query dataset and chunk
	// the connector's split size; each object is a little under two chunks.
	objects int
	chunk   int64
	// payloads is the number of distinct ingest bodies, cycled over keys
	// object names so that every PUT after the first round overwrites.
	payloads, keys int
	// checkEvery-th PUT is followed by a HEAD and a byte-checked ranged GET;
	// reputEvery-th dashboard query is preceded by a re-PUT of one part.
	checkEvery, reputEvery int
	// setups is how often set-up runs; setup_s is the median.
	setups int
}

var fullScale = scale{
	meters: 1000, interval: 48 * time.Hour,
	objects: 8, chunk: 1 << 20,
	payloads: 16, keys: 64,
	checkEvery: 8, reputEvery: 100,
	setups: 3,
}

func (s scale) meterConfig(seed int64) meter.Config {
	return meter.Config{
		Meters:   s.meters,
		Start:    time.Date(2014, 7, 1, 0, 0, 0, 0, time.UTC),
		Days:     365,
		Interval: s.interval,
		Seed:     seed,
	}
}

// workloadDef is one of the four workloads. The names are the benchmark's
// contract with later changes; BENCHMARK.json repeats them with the reason
// each exists.
type workloadDef struct {
	name string
	// ingest selects the PUT loop; otherwise the Table I queries run in mode.
	ingest bool
	mode   core.Mode
	// cacheBytes sizes the result cache (0 = off).
	cacheBytes int64
	// rate (bytes/s) and delay shape the link; 0 leaves loopback unshaped.
	rate  float64
	delay time.Duration
	// reput turns on the dashboard's writes beside reads.
	reput bool
}

const (
	wanRate  = 25e6
	wanDelay = 2 * time.Millisecond
)

var workloads = []workloadDef{
	{name: "wan_pushdown", mode: core.ModePushdown, rate: wanRate, delay: wanDelay},
	{name: "wan_baseline", mode: core.ModeBaseline, rate: wanRate, delay: wanDelay},
	{name: "lan_dashboard", mode: core.ModePushdown, cacheBytes: 256 << 20, reput: true},
	{name: "lan_ingest", ingest: true},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// recorder collects what the measured loop observes. Index 1 of the paired
// fields holds the traced rounds of a traced run, index 0 everything else.
type recorder struct {
	traced int
	// latMs are the per-operation latencies (one SQL query or one PUT).
	latMs [2][]float64
	// ops counts the operations the per-op metrics divide by; attempted and
	// failed also count the checks around them.
	ops               [2]int64
	attempted, failed int64
	// userBytes is the payload the client uploaded and the store
	// acknowledged.
	userBytes int64
	// Query workloads: sums over core.Result.Metrics.
	compute                   [2]compute.Stats
	rowsScanned, rowsReturned [2]int64
	// rowsRead counts the records the data source parsed: in baseline mode
	// the whole dataset, in pushdown mode what the store let through.
	rowsRead [2]int64
	// linkWait is the link's sleeping time, per kind of round.
	linkWait [2]time.Duration
}

func (r *recorder) op(start time.Time, ok bool) {
	r.latMs[r.traced] = append(r.latMs[r.traced], float64(time.Since(start))/1e6)
	r.ops[r.traced]++
	r.check(ok)
}

func (r *recorder) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// session is a workload set up and ready to run rounds.
type session interface {
	// round runs one round of the closed loop: the next operation starts
	// when the previous one has returned and been verified.
	round(ctx context.Context, rec *recorder)
	testbed() *bed
	// liveUserBytes is the user data the store holds at this moment.
	liveUserBytes() int64
	// inputs describes the generated inputs for the run record.
	inputs() map[string]int64
	// ladder times direct calls into the layers that have no seam.
	ladder(ctx context.Context) (map[string]float64, error)
	close()
}

// setup builds the workload's bed and inputs and warms it up.
func setup(ctx context.Context, def workloadDef, o runOpts, tr *tracer) (session, error) {
	if def.ingest {
		return setupIngest(ctx, def, o, tr)
	}
	return setupQueries(ctx, def, o, tr)
}

// sliceRecords cuts data into n parts on record boundaries.
func sliceRecords(data []byte, n int) [][]byte {
	parts := make([][]byte, 0, n)
	size := len(data) / n
	start := 0
	for i := 0; i < n && start < len(data); i++ {
		end := len(data)
		if i < n-1 {
			end = start + size
			if nl := bytes.IndexByte(data[end:], '\n'); nl >= 0 {
				end += nl + 1
			} else {
				end = len(data)
			}
		}
		parts = append(parts, data[start:end])
		start = end
	}
	return parts
}

// generate renders the dataset for a seed and cuts it into parts.
func generate(cfg meter.Config, parts int) ([][]byte, error) {
	var buf bytes.Buffer
	if _, err := cfg.WriteCSV(&buf); err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	return sliceRecords(buf.Bytes(), parts), nil
}

// warmUp runs one untimed round over the unshaped link, letting pools and
// lazy set-up fill, then shapes the link for the measured rounds. A warm-up
// that fails the oracle ends the run: the workload would measure errors.
func warmUp(ctx context.Context, s session, def workloadDef) error {
	var rec recorder
	s.round(ctx, &rec)
	if rec.failed > 0 {
		return fmt.Errorf("%s: warm-up: %d of %d operations failed", def.name, rec.failed, rec.attempted)
	}
	s.testbed().link.Shape(def.rate, def.delay)
	return nil
}

// querySession runs the seven Table I queries round-robin.
type querySession struct {
	def    workloadDef
	o      runOpts
	b      *bed
	parts  [][]byte
	etags  []string
	order  []int
	oracle []rowsDigest
	// listBytes is the size of the container listing every query fetches,
	// the difference between the link's count and the connector's.
	listBytes    int64
	listSlack    int64
	datasetBytes int64
	datasetRows  int64
	queries      int
	reputs       int
}

func partName(i int) string { return fmt.Sprintf("part-%04d.csv", i) }

func setupQueries(ctx context.Context, def workloadDef, o runOpts, tr *tracer) (session, error) {
	b, err := newBed(bedSpec{procs: o.procs, cacheBytes: def.cacheBytes, chunkSize: o.scale.chunk, tracer: tr})
	if err != nil {
		return nil, err
	}
	s := &querySession{def: def, o: o, b: b}
	if err := s.load(ctx); err != nil {
		b.Close()
		return nil, err
	}
	return s, nil
}

func (s *querySession) load(ctx context.Context) error {
	cfg := s.o.scale.meterConfig(s.o.seed)
	parts, err := generate(cfg, s.o.scale.objects)
	if err != nil {
		return err
	}
	s.parts, s.datasetRows = parts, cfg.Rows()
	if err := s.b.store.CreateContainer(ctx, account, queryContainer, nil); err != nil {
		return fmt.Errorf("create container: %w", err)
	}
	for i, p := range parts {
		info, err := s.b.store.PutObject(ctx, account, queryContainer, partName(i), bytes.NewReader(p), nil)
		if err != nil {
			return fmt.Errorf("upload %s: %w", partName(i), err)
		}
		s.etags = append(s.etags, info.ETag)
		s.datasetBytes += info.Size
	}

	// The oracle: every query once in baseline mode through the in-process
	// client. Pushdown must return exactly what baseline returns.
	oracle, err := core.New(core.Config{
		Client: s.b.store, Account: account, ChunkSize: s.o.scale.chunk,
		Compute: compute.Config{Workers: s.o.procs, Retries: 1},
	})
	if err != nil {
		return err
	}
	for _, sc := range []*core.Scoop{oracle, s.b.scoop} {
		if err := sc.RegisterTable(tableName, queryContainer, "", meter.SchemaDecl, datasource.CSVOptions{}); err != nil {
			return err
		}
	}
	for _, q := range experiment.GridPocketQueries {
		res, err := oracle.Query(q.SQL, core.QueryOptions{Mode: core.ModeBaseline, Context: ctx})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", q.Name, err)
		}
		if len(res.Rows) == 0 {
			return fmt.Errorf("oracle %s: empty result: the seed's dataset does not exercise the query", q.Name)
		}
		s.oracle = append(s.oracle, digestRows(res.Rows))
	}
	s.order = rand.New(rand.NewSource(s.o.seed)).Perm(len(experiment.GridPocketQueries))

	before := s.b.link.Stats()
	if _, err := s.b.remote.ListObjects(ctx, account, queryContainer, ""); err != nil {
		return fmt.Errorf("list over http: %w", err)
	}
	s.listBytes = s.b.link.Stats().Sub(before).BytesDown
	s.listSlack = 10 * int64(len(s.parts)) // a timestamp's fraction, per object
	return warmUp(ctx, s, s.def)
}

func (s *querySession) round(ctx context.Context, rec *recorder) {
	tr := s.b.spec.tracer
	for _, qi := range s.order {
		s.queries++
		if s.def.reput && s.queries%s.o.scale.reputEvery == 0 {
			// Writes beside reads: the same bytes again, which invalidates
			// the part's cached results without changing any answer. The
			// rotation starts at the middle part, which holds January.
			i := (len(s.parts)/2 + s.reputs) % len(s.parts)
			s.reputs++
			info, err := s.b.remote.PutObject(ctx, account, queryContainer, partName(i), bytes.NewReader(s.parts[i]), nil)
			ok := err == nil && info.ETag == s.etags[i]
			if ok {
				rec.userBytes += info.Size
			}
			rec.check(ok)
		}
		before := s.b.link.Stats()
		start := time.Now()
		qctx, sp := tr.root(ctx, "op")
		res, err := s.b.scoop.Query(experiment.GridPocketQueries[qi].SQL, core.QueryOptions{Mode: s.def.mode, Context: qctx})
		sp.finish()
		ok := err == nil && digestRows(res.Rows) == s.oracle[qi]
		if ok {
			// The connector's own count of what it ingested must be what
			// the link saw pass, less the listing. The listing's size moves
			// by a few bytes when a re-PUT changes a timestamp's digits.
			extra := s.b.link.Stats().Sub(before).BytesDown - res.Metrics.BytesIngested - s.listBytes
			ok = extra >= -s.listSlack && extra <= s.listSlack
		}
		rec.op(start, ok)
		if err != nil {
			continue
		}
		m := res.Metrics
		c := &rec.compute[rec.traced]
		c.Tasks += m.Compute.Tasks
		c.Attempts += m.Compute.Attempts
		c.Failures += m.Compute.Failures
		c.WallTime += m.Compute.WallTime
		c.BusyTime += m.Compute.BusyTime
		rec.rowsScanned[rec.traced] += m.RowsScanned
		rec.rowsReturned[rec.traced] += int64(m.RowsReturned)
		if s.def.mode == core.ModeBaseline {
			rec.rowsRead[rec.traced] += s.datasetRows
		} else {
			rec.rowsRead[rec.traced] += m.RowsScanned
		}
	}
}

func (s *querySession) testbed() *bed        { return s.b }
func (s *querySession) liveUserBytes() int64 { return s.datasetBytes }
func (s *querySession) close()               { s.b.Close() }

func (s *querySession) inputs() map[string]int64 {
	return map[string]int64{
		"dataset_bytes":  s.datasetBytes,
		"dataset_rows":   s.datasetRows,
		"objects":        int64(len(s.parts)),
		"chunk_bytes":    s.o.scale.chunk,
		"ops_per_round":  int64(len(s.order)),
		"listing_bytes":  s.listBytes,
		"reput_every_op": int64(s.o.scale.reputEvery),
	}
}

// ingestSession PUTs cleansed-on-upload objects into a disk-backed cluster.
type ingestSession struct {
	def      workloadDef
	o        runOpts
	b        *bed
	dataDir  string
	payloads [][]byte
	expect   []cleansed
	// live maps a key to the payload it holds.
	live   []int
	rounds int
	puts   int
}

func keyName(k int) string { return fmt.Sprintf("obj-%03d.csv", k) }

func setupIngest(ctx context.Context, def workloadDef, o runOpts, tr *tracer) (session, error) {
	dir, err := tempDataDir(o.outDir)
	if err != nil {
		return nil, err
	}
	b, err := newBed(bedSpec{procs: o.procs, dataDir: dir, chunkSize: o.scale.chunk, tracer: tr})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	s := &ingestSession{def: def, o: o, b: b, dataDir: dir, live: make([]int, o.scale.keys)}
	if err := s.load(ctx); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *ingestSession) load(ctx context.Context) error {
	cfg := s.o.scale.meterConfig(s.o.seed)
	cfg.DirtyFraction = 0.02
	var err error
	if s.payloads, err = generate(cfg, s.o.scale.payloads); err != nil {
		return err
	}
	for _, p := range s.payloads {
		c, err := cleanseLocally(ctx, p)
		if err != nil {
			return err
		}
		s.expect = append(s.expect, c)
	}
	policy := &objectstore.ContainerPolicy{PutPipeline: cleansePipeline()}
	if err := s.b.store.CreateContainer(ctx, account, ingestContainer, policy); err != nil {
		return fmt.Errorf("create container: %w", err)
	}
	return warmUp(ctx, s, s.def)
}

func (s *ingestSession) round(ctx context.Context, rec *recorder) {
	tr := s.b.spec.tracer
	for k := range s.live {
		pi := (k + s.rounds) % len(s.payloads)
		want := s.expect[pi]
		start := time.Now()
		pctx, sp := tr.root(ctx, "op")
		info, err := s.b.client.PutObject(pctx, account, ingestContainer, keyName(k), bytes.NewReader(s.payloads[pi]), nil)
		sp.finish()
		ok := err == nil && info.Size == int64(len(want.body)) && info.ETag == want.etag
		rec.op(start, ok)
		if !ok {
			continue
		}
		s.live[k] = pi
		rec.userBytes += int64(len(s.payloads[pi]))
		s.puts++
		if s.puts%s.o.scale.checkEvery == 0 {
			s.readBack(ctx, k, want, rec)
		}
	}
	s.rounds++
}

// readBack checks an acknowledged object with a HEAD and a ranged plain GET
// compared byte for byte.
func (s *ingestSession) readBack(ctx context.Context, k int, want cleansed, rec *recorder) {
	info, err := s.b.client.HeadObject(ctx, account, ingestContainer, keyName(k))
	rec.check(err == nil && info.Size == int64(len(want.body)) && info.ETag == want.etag)
	from := int64(len(want.body) / 3)
	to := min(from+rangeCheckBytes, int64(len(want.body)))
	rc, _, err := s.b.client.GetObject(ctx, account, ingestContainer, keyName(k), objectstore.GetOptions{RangeStart: from, RangeEnd: to})
	if err != nil {
		rec.check(false)
		return
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	rec.check(err == nil && bytes.Equal(got, want.body[from:to]))
}

func (s *ingestSession) testbed() *bed { return s.b }

func (s *ingestSession) liveUserBytes() int64 {
	var n int64
	for _, pi := range s.live {
		n += int64(len(s.payloads[pi]))
	}
	return n
}

func (s *ingestSession) inputs() map[string]int64 {
	var bytesTotal int64
	for _, p := range s.payloads {
		bytesTotal += int64(len(p))
	}
	return map[string]int64{
		"payloads":       int64(len(s.payloads)),
		"payload_bytes":  bytesTotal / int64(len(s.payloads)),
		"keys":           int64(len(s.live)),
		"ops_per_round":  int64(len(s.live)),
		"check_every_op": int64(s.o.scale.checkEvery),
	}
}

func (s *ingestSession) close() {
	s.b.Close()
	os.RemoveAll(s.dataDir)
}
