package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"scoop/internal/connector"
	"scoop/internal/core"
	"scoop/internal/csvio"
	"scoop/internal/datasource"
	"scoop/internal/experiment"
	"scoop/internal/meter"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/sql/exec"
	"scoop/internal/sql/parser"
	"scoop/internal/sql/plan"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
	"scoop/internal/storlet/etl"
)

// The ladder measures the layers no seam separates: it calls public
// functions directly, on one split of the run's own data with the run's own
// task, and reports each layer as its rung less the rung below. It runs after
// the measured rounds, on the in-process side of the bed.

// rungReps is how often each rung runs. A layer is the median over the
// repetitions of the difference between two rungs timed back to back,
// because that difference is small against the drift of a single call.
const rungReps = 15

// timed returns the wall time of f in milliseconds.
func timed(f func() error) (float64, error) {
	start := time.Now()
	err := f()
	return float64(time.Since(start)) / 1e6, err
}

// rung returns the median wall time of f in milliseconds.
func rung(f func() error) (float64, error) {
	ms := make([]float64, 0, rungReps)
	for i := 0; i < rungReps; i++ {
		t, err := timed(f)
		if err != nil {
			return 0, err
		}
		ms = append(ms, t)
	}
	return quantile(ms, 0.5), nil
}

// perCall returns the mean time of one call of f in nanoseconds.
func perCall(n int, f func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	return float64(time.Since(start)) / float64(n)
}

func drain(rc io.ReadCloser, err error) error {
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, rc)
	if cerr := rc.Close(); err == nil {
		err = cerr
	}
	return err
}

// firstReplica is the node a read of path tries first.
func firstReplica(b *bed, path string) (*objectstore.Node, error) {
	names, err := b.cluster.Ring().NodesForRead(path)
	if err != nil {
		return nil, err
	}
	node, ok := b.cluster.Members().Get(names[0])
	if !ok {
		return nil, fmt.Errorf("ring names unknown node %q", names[0])
	}
	return node, nil
}

// storageRungs climbs from the filter to the node on bytes [0, end) of one
// stored object: Filter.Invoke, Engine.RunChain, Node.Get. Without a task
// only the node's plain read exists.
func storageRungs(ctx context.Context, b *bed, f storlet.Filter, task *pushdown.Task, path string, body []byte, end int64, out map[string]float64) error {
	node, err := firstReplica(b, path)
	if err != nil {
		return err
	}
	var tasks []*pushdown.Task
	if task != nil {
		tasks = []*pushdown.Task{task}
	}
	sctx := func() *storlet.Context {
		return &storlet.Context{Ctx: ctx, Task: task, RangeEnd: end, ObjectSize: int64(len(body))}
	}
	var gets, engine, above []float64
	for i := 0; i < rungReps; i++ {
		var invoke, chain float64
		if task != nil {
			if invoke, err = timed(func() error { return f.Invoke(sctx(), bytes.NewReader(body), io.Discard) }); err != nil {
				return err
			}
			if chain, err = timed(func() error { return drain(b.cluster.Engine().RunChain(sctx(), tasks, bytes.NewReader(body))) }); err != nil {
				return err
			}
		}
		get, err := timed(func() error {
			rc, _, err := node.Get(ctx, path, 0, end, tasks)
			return drain(rc, err)
		})
		if err != nil {
			return err
		}
		gets, engine, above = append(gets, get), append(engine, chain-invoke), append(above, get-chain)
	}
	out["storlet.self_ms_per_run"] = quantile(engine, 0.5)
	out["node.get_ms_per_split"] = quantile(gets, 0.5)
	out["node.self_ms_per_get"] = quantile(above, 0.5)
	out["ring.lookup_ns"] = perCall(20000, func() { _, _ = b.cluster.Ring().NodesForRead(path) })
	return nil
}

func (s *querySession) ladder(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	queries := experiment.GridPocketQueries
	schema, err := types.ParseSchema(meter.SchemaDecl)
	if err != nil {
		return nil, err
	}

	// sql: parse and plan by themselves, then exec on the rows a scan of the
	// whole dataset delivers, all seven queries each.
	plans := make([]*plan.Plan, len(queries))
	for i, q := range queries {
		sel, err := parser.Parse(q.SQL)
		if err != nil {
			return nil, err
		}
		if plans[i], err = plan.Analyze(sel, schema, plan.Options{}); err != nil {
			return nil, err
		}
	}
	const sqlReps = 100
	out["sql.parse_us"] = perCall(sqlReps, func() {
		for _, q := range queries {
			_, _ = parser.Parse(q.SQL)
		}
	}) / 1e3 / float64(len(queries))
	out["sql.plan_us"] = perCall(sqlReps, func() {
		for _, q := range queries {
			sel, _ := parser.Parse(q.SQL)
			_, _ = plan.Analyze(sel, schema, plan.Options{})
		}
	})/1e3/float64(len(queries)) - out["sql.parse_us"]

	// A private tracer times the store client under a connector of the
	// ladder's own, so connector self = wall of Open..Close - client busy.
	tr := newTracer()
	tr.on.Store(true)
	lctx, root := tr.root(ctx, "ladder")
	conn := connector.New(&tracedClient{Client: s.b.store, t: tr, layer: "client"}, account, s.o.scale.chunk)
	rel, err := datasource.NewCSV(conn, queryContainer, "", meter.SchemaDecl, datasource.CSVOptions{Pushdown: s.def.mode == core.ModePushdown})
	if err != nil {
		return nil, err
	}
	splits, err := rel.Splits(lctx)
	if err != nil {
		return nil, err
	}
	var execMs float64
	for _, p := range plans {
		var rows []types.Row
		for _, split := range splits {
			it, err := rel.ScanPrunedFiltered(lctx, split, p.Required, p.Pushed)
			if err != nil {
				return nil, err
			}
			for {
				r, err := it.Next()
				if errors.Is(err, io.EOF) {
					break
				}
				if err != nil {
					it.Close()
					return nil, err
				}
				rows = append(rows, r)
			}
			it.Close()
		}
		ms, err := rung(func() error {
			_, err := exec.Execute(p, exec.NewSliceIterator(rows))
			return err
		})
		if err != nil {
			return nil, err
		}
		execMs += ms
	}
	out["sql.exec_ms"] = execMs / float64(len(plans))

	// The task of the first query, the way the datasource builds it.
	first := plans[0]
	var task *pushdown.Task
	if s.def.mode == core.ModePushdown {
		task = &pushdown.Task{Filter: csvfilter.FilterName, Columns: first.Required, Predicates: first.Pushed, Schema: meter.SchemaDecl, Options: map[string]string{}}
	}
	var tasks []*pushdown.Task
	if task != nil {
		tasks = []*pushdown.Task{task}
	}
	before := len(tr.snapshot())
	start := time.Now()
	for _, split := range splits {
		if err := drain(conn.Open(lctx, split, tasks)); err != nil {
			return nil, err
		}
	}
	wall := time.Since(start)
	root.finish()
	var busy int64
	for _, sp := range tr.snapshot()[before:] {
		if sp.Name == "client.get" {
			busy += sp.Busy
		}
	}
	out["connector.self_ms_per_split"] = float64(int64(wall)-busy) / 1e6 / float64(len(splits))

	// Storage rungs on the first split of the part that holds January 2015:
	// the twelve months start in July, so it is the middle part.
	part := len(s.parts) / 2
	body := s.parts[part]
	end := min(s.o.scale.chunk, int64(len(body)))
	path := "/" + account + "/" + queryContainer + "/" + partName(part)
	if err := storageRungs(ctx, s.b, csvfilter.New(), task, path, body, end, out); err != nil {
		return nil, err
	}

	// csvio and pushdown on the same bytes: the scan by itself, then the scan
	// with the workload's predicates, then the scan with a record write; the
	// differences are the match and the write.
	preds := first.Pushed
	idx := make([]int, len(preds))
	for i, p := range preds {
		idx[i] = schema.Index(p.Column)
	}
	var sc csvio.FieldScanner
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	records := 0
	pass := func(each func(fields [][]byte)) func() error {
		return func() error {
			rr := csvio.NewRangeReader(bytes.NewReader(body), 0, end)
			records = 0
			for {
				rec, err := rr.Next()
				if errors.Is(err, io.EOF) {
					return nil
				}
				if err != nil {
					return err
				}
				records++
				each(sc.Scan(rec, csvio.DefaultDelimiter))
			}
		}
	}
	scan, err := rung(pass(func([][]byte) {}))
	if err != nil {
		return nil, err
	}
	matched := 0
	match, err := rung(pass(func(fields [][]byte) {
		for i, p := range preds {
			if !p.MatchesBytes(fields[idx[i]], false) {
				return
			}
		}
		matched++
	}))
	if err != nil {
		return nil, err
	}
	write, err := rung(pass(func(fields [][]byte) { _ = csvio.WriteRecord(bw, fields, csvio.DefaultDelimiter) }))
	if err != nil {
		return nil, err
	}
	perRecord := 1e6 / float64(max(records, 1))
	out["csvio.scan_ns_per_record"] = scan * perRecord
	out["pushdown.match_ns_per_record"] = (match - scan) * perRecord
	out["csvio.write_ns_per_record"] = (write - scan) * perRecord
	if task != nil {
		out["pushdown.chainhash_us"] = perCall(2000, func() { _ = pushdown.ChainHash(tasks) }) / 1e3
	}
	return out, nil
}

func (s *ingestSession) ladder(ctx context.Context) (map[string]float64, error) {
	out := map[string]float64{}
	body := s.payloads[0]
	task := cleansePipeline()[0]
	info := objectstore.ObjectInfo{Account: account, Container: ingestContainer, Name: "ladder.csv"}
	node, err := firstReplica(s.b, info.Path())
	if err != nil {
		return nil, err
	}
	// One replica of the cleansed body, written straight to a node, for the
	// PUT rung and for the read rungs below it; removed again afterwards.
	want := s.expect[0].body
	if out["node.put_ms_per_object"], err = rung(func() error {
		_, err := node.Put(ctx, info, bytes.NewReader(want))
		return err
	}); err != nil {
		return nil, err
	}
	defer func() { _ = node.Delete(ctx, info.Path()) }()
	// The cleanse filter runs on uploads only, so its rungs take the raw
	// payload and the read rung takes no task.
	sctx := func() *storlet.Context {
		return &storlet.Context{Ctx: ctx, Task: task, RangeEnd: int64(1) << 62, ObjectSize: -1}
	}
	var engine []float64
	for i := 0; i < rungReps; i++ {
		invoke, err := timed(func() error { return etl.NewCleanse().Invoke(sctx(), bytes.NewReader(body), io.Discard) })
		if err != nil {
			return nil, err
		}
		chain, err := timed(func() error {
			return drain(s.b.cluster.Engine().RunChain(sctx(), []*pushdown.Task{task}, bytes.NewReader(body)))
		})
		if err != nil {
			return nil, err
		}
		engine = append(engine, chain-invoke)
	}
	if err := storageRungs(ctx, s.b, nil, nil, info.Path(), want, int64(len(want)), out); err != nil {
		return nil, err
	}
	out["storlet.self_ms_per_run"] = quantile(engine, 0.5)
	return out, nil
}
