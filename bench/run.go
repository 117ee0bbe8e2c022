package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"scoop/bench/shapedlink"
	"scoop/internal/connector"
	"scoop/internal/objectstore"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
	"scoop/internal/storlet/etl"
)

// runOpts are the inputs of one run of one workload.
type runOpts struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	procs   int
	scale   scale
}

// metricDef names a metric; BENCHMARK.json repeats the list, and the smoke
// test holds the two together.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. An operation is one SQL
// query on the query workloads and one PUT on lan_ingest, so every workload
// reports every metric.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"link_bytes_per_op", "B"},
	{"http_requests_per_op", "count"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_mb_per_op", "MB"},
	{"stored_bytes_per_user_byte", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run reports. The first four fields are the last line of
// standard output; the rest goes into the run record.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	ops    int64
	wall   time.Duration
	inputs map[string]int64
}

// counters is a snapshot of every public statistic the layers expose; the
// measured phase reports the difference of two.
type counters struct {
	node    objectstore.NodeStats
	proxy   objectstore.ProxyStats
	filters map[string]storlet.Stats
	cluster map[string]int64
	client  map[string]int64
	conn    connector.Stats
	link    shapedlink.Stats
	written int64
	alloc   uint64
}

func (b *bed) counters() counters {
	c := counters{
		node:    b.cluster.NodeStatsTotal(),
		proxy:   b.cluster.ProxyStatsTotal(),
		filters: map[string]storlet.Stats{},
		cluster: b.cluster.Metrics().Snapshot(),
		client:  b.clientMetrics.Snapshot(),
		conn:    b.scoop.Connector().Stats(),
		link:    b.link.Stats(),
		written: b.written.Load(),
	}
	for _, name := range []string{csvfilter.FilterName, etl.CleanseName} {
		c.filters[name] = b.cluster.Engine().StatsFor(name)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.alloc = ms.TotalAlloc
	return c
}

// processCPU is the user plus system CPU time of the process, which hosts
// both clusters.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantile returns the q-quantile of values by linear interpolation.
func quantile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// runWorkload sets the workload up (several times, for a steady setup_s),
// measures it for o.seconds in whole rounds, and reports the end-to-end
// metrics — or, for a traced run, the per-layer ones. In a traced run the
// rounds alternate between tracer off and on over the same bed, which gives
// trace.overhead_pct from one run.
func runWorkload(ctx context.Context, def workloadDef, o runOpts) (*result, error) {
	runtime.GOMAXPROCS(o.procs)
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var sess session
	var setups []float64
	for i := 0; i < o.scale.setups; i++ {
		if sess != nil {
			sess.close()
		}
		start := time.Now()
		var err error
		if sess, err = setup(ctx, def, o, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer sess.close()
	b := sess.testbed()

	// Start every run from a collected heap, so that what set-up left behind
	// is not charged to the first measured operations.
	runtime.GC()
	rec := &recorder{}
	before := b.counters()
	start := time.Now()
	// Throughput and CPU are also taken round by round: the machine's speed
	// drifts in bursts, and the median round is steadier than the mean.
	var roundRate, roundCPU []float64
	// A traced run needs a round of each kind, however short the run.
	for round := 0; time.Since(start).Seconds() < o.seconds || (tr != nil && round < 2); round++ {
		if tr != nil {
			rec.traced = round % 2
			tr.on.Store(rec.traced == 1)
		}
		wait, ops, cpu, t0 := b.link.Stats().Wait, rec.ops[0]+rec.ops[1], processCPU(), time.Now()
		sess.round(ctx, rec)
		rec.linkWait[rec.traced] += b.link.Stats().Wait - wait
		if n := float64(rec.ops[0] + rec.ops[1] - ops); n > 0 {
			roundRate = append(roundRate, n/time.Since(t0).Seconds())
			roundCPU = append(roundCPU, float64(processCPU()-cpu)/1e6/n)
		}
	}
	wall := time.Since(start)
	after := b.counters()

	ops := rec.ops[0] + rec.ops[1]
	res := &result{
		Correct:   rec.failed == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   map[string]metric{},
		ops:       ops,
		wall:      wall,
		inputs:    sess.inputs(),
	}
	if ops == 0 {
		return nil, fmt.Errorf("%s: no operation completed", def.name)
	}
	if tr != nil {
		spans := tr.snapshot()
		rungs, err := sess.ladder(ctx)
		if err != nil {
			return nil, fmt.Errorf("%s: ladder: %w", def.name, err)
		}
		m := layerInputs{
			def: def, bed: b, rec: rec, spans: spans, rungs: rungs,
			wall: wall, before: before, after: after,
		}
		for name, v := range m.metrics() {
			res.Metrics[name] = v
		}
		if err := writeSpans(filepath.Join(o.outDir, "trace-"+def.name+".json"), spans); err != nil {
			return nil, fmt.Errorf("%s: write trace: %w", def.name, err)
		}
		return res, nil
	}

	stored, err := b.storedBytes(ctx)
	if err != nil {
		return nil, fmt.Errorf("%s: stored bytes: %w", def.name, err)
	}
	link := after.link.Sub(before.link)
	perOp := func(v float64) float64 { return v / float64(ops) }
	values := map[string]float64{
		"setup_s":                    quantile(setups, 0.5),
		"op_p50_ms":                  quantile(rec.latMs[0], 0.5),
		"op_p95_ms":                  quantile(rec.latMs[0], 0.95),
		"ops_per_s":                  quantile(roundRate, 0.5),
		"link_bytes_per_op":          perOp(float64(link.Bytes())),
		"http_requests_per_op":       perOp(float64(link.Requests)),
		"cpu_ms_per_op":              quantile(roundCPU, 0.5),
		"alloc_mb_per_op":            perOp(float64(after.alloc-before.alloc) / 1e6),
		"stored_bytes_per_user_byte": float64(stored) / float64(sess.liveUserBytes()),
	}
	for _, d := range endToEnd {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res, nil
}
