package main

import (
	"time"

	"scoop/internal/storlet"
	"scoop/internal/storlet/csvfilter"
	"scoop/internal/storlet/etl"
)

// perLayer are the metrics of the traced run, named <layer>.<metric>. Every
// workload reports all of them; a layer a workload does not enter reports 0.
//
// Three kinds of source feed them. Counts are differences of the public
// statistics the layers already keep. Times at the seven seams come from the
// spans of the traced rounds: "busy" is the time spent inside calls into a
// layer, and a layer's self time is its busy time less the busy time of the
// seam below. Where there is no seam (inside core.Query, between proxy and
// node, below csvfilter) the ladder times direct calls on one split, and a
// layer is its rung less the rung below.
var perLayer = []metricDef{
	{"sql.parse_us", "us"}, {"sql.plan_us", "us"}, {"sql.exec_ms", "ms"}, {"sql.rows_in_per_row_out", "ratio"},
	{"core.query_ms", "ms"}, {"core.self_ms", "ms"},
	{"compute.busy_s", "s"}, {"compute.wall_s", "s"}, {"compute.idle_pct", "%"}, {"compute.attempts", "count"}, {"compute.failures", "count"},
	{"datasource.scan_ms_per_split", "ms"}, {"datasource.self_ns_per_row", "ns"}, {"datasource.rows", "count"},
	{"connector.discover_ms", "ms"}, {"connector.open_ms_per_split", "ms"}, {"connector.self_ms_per_split", "ms"},
	{"connector.requests", "count"}, {"connector.fallbacks", "count"}, {"connector.fallback_bytes", "B"},
	{"httpclient.get_ms_per_split", "ms"}, {"httpclient.self_ms_per_split", "ms"},
	{"httpclient.retries", "count"}, {"httpclient.resumes", "count"}, {"httpclient.cache_hits", "count"},
	{"link.bytes", "B"}, {"link.requests", "count"}, {"link.busy_s", "s"}, {"link.wait_s", "s"}, {"link.utilization", "ratio"}, {"link.http_ms_per_req", "ms"},
	{"handler.serve_ms_per_req", "ms"}, {"handler.self_ms_per_req", "ms"}, {"handler.write_ms_per_req", "ms"},
	{"proxy.get_ms_per_split", "ms"}, {"proxy.get_cached_ms_per_split", "ms"}, {"proxy.self_ms_per_get", "ms"}, {"proxy.put_ms_per_object", "ms"},
	{"proxy.bytes_from_nodes", "B"}, {"proxy.bytes_to_client", "B"},
	{"proxy.failovers", "count"}, {"proxy.stale_skips", "count"}, {"proxy.repair_pending", "count"},
	{"resultcache.hit_ratio", "ratio"}, {"resultcache.collapses", "count"}, {"resultcache.invalidations", "count"},
	{"resultcache.fill_mismatch", "count"}, {"resultcache.evictions", "count"},
	{"ring.lookup_ns", "ns"}, {"ring.epoch", "count"},
	{"node.get_ms_per_split", "ms"}, {"node.self_ms_per_get", "ms"}, {"node.put_ms_per_object", "ms"},
	{"node.bytes_read", "B"}, {"node.bytes_sent", "B"}, {"node.filter_s", "s"}, {"node.requests", "count"}, {"node.errors", "count"},
	{"store.get_ms_per_split", "ms"}, {"store.put_ms_per_object", "ms"}, {"store.bytes_written_per_user_byte", "ratio"},
	{"storlet.run_ms_per_split", "ms"}, {"storlet.self_ms_per_run", "ms"},
	{"storlet.invocations", "count"}, {"storlet.errors", "count"}, {"storlet.rejections", "count"},
	{"storlet.bytes_in", "B"}, {"storlet.bytes_out", "B"},
	{"csvfilter.invoke_ms_per_split", "ms"}, {"csvfilter.mb_per_s", "MB/s"}, {"csvfilter.bytes_out_per_byte_in", "ratio"},
	{"etl.cleanse_ms_per_object", "ms"}, {"etl.mb_per_s", "MB/s"},
	{"pushdown.match_ns_per_record", "ns"}, {"pushdown.chainhash_us", "us"},
	{"csvio.scan_ns_per_record", "ns"}, {"csvio.write_ns_per_record", "ns"},
	{"trace.overhead_pct", "%"}, {"trace.accounted_pct", "%"}, {"trace.spans", "count"},
}

// spanSum totals the spans of one kind.
type spanSum struct {
	n                  int64
	dur, busy, in, out int64 // nanoseconds
}

func (s spanSum) ms(total int64) float64 {
	if s.n == 0 {
		return 0
	}
	return float64(total) / 1e6 / float64(s.n)
}

// sumSpans totals spans by name. A link span is also totalled under
// "link<" + its parent's name, which separates the GETs of splits from
// listings, and a proxy GET under its cache verdict.
func sumSpans(spans []spanRec) map[string]spanSum {
	names := make(map[uint64]string, len(spans))
	for _, s := range spans {
		names[s.ID] = s.Name
	}
	sums := map[string]spanSum{}
	add := func(key string, s spanRec) {
		t := sums[key]
		t.n++
		t.dur += s.End - s.Start
		t.busy += s.Busy
		t.in += s.In
		t.out += s.Out
		sums[key] = t
	}
	for _, s := range spans {
		if s.Busy == 0 {
			// A plain call is inside its layer from start to end.
			s.Busy = s.End - s.Start
		}
		add(s.Name, s)
		switch s.Name {
		case "link":
			add("link<"+names[s.Parent], s)
		case "proxy.get":
			add("proxy.get#"+s.Note, s)
		}
	}
	return sums
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	def           workloadDef
	bed           *bed
	rec           *recorder
	spans         []spanRec
	rungs         map[string]float64
	wall          time.Duration
	before, after counters
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (in layerInputs) metrics() map[string]metric {
	v := map[string]float64{}
	for name, x := range in.rungs {
		v[name] = x
	}
	rec, sums := in.rec, sumSpans(in.spans)
	delta := func(after, before map[string]int64, name string) float64 {
		return float64(after[name] - before[name])
	}
	cluster := func(name string) float64 { return delta(in.after.cluster, in.before.cluster, name) }
	client := func(name string) float64 { return delta(in.after.client, in.before.client, name) }

	op, list, get := sums["op"], sums["client.list"], sums["client.get"]
	linkGet, handler := sums["link<client.get"], sums["handler"]
	pget, pput := sums["proxy.get"], sums["proxy.put"]
	sget, sput := sums["store.get"], sums["store.put"]
	fcsv, fetl := sums["filter."+csvfilter.FilterName], sums["filter."+etl.CleanseName]

	// sql, core, compute, datasource: the compute side above the client.
	busy := rec.compute[0].BusyTime + rec.compute[1].BusyTime
	cwall := rec.compute[0].WallTime + rec.compute[1].WallTime
	attempts := rec.compute[0].Attempts + rec.compute[1].Attempts
	v["sql.rows_in_per_row_out"] = ratio(float64(rec.rowsScanned[0]+rec.rowsScanned[1]), float64(rec.rowsReturned[0]+rec.rowsReturned[1]))
	v["core.query_ms"] = op.ms(op.dur)
	sqlMs := (v["sql.parse_us"]+v["sql.plan_us"])/1e3 + v["sql.exec_ms"]
	if !in.def.ingest {
		v["core.self_ms"] = ratio(float64(op.dur-int64(rec.compute[1].WallTime)-list.dur)/1e6, float64(op.n)) - sqlMs
	}
	v["compute.busy_s"] = busy.Seconds()
	v["compute.wall_s"] = cwall.Seconds()
	if cwall > 0 {
		v["compute.idle_pct"] = 100 * (1 - busy.Seconds()/(cwall.Seconds()*float64(in.bed.spec.procs)))
	}
	v["compute.attempts"] = float64(attempts)
	v["compute.failures"] = float64(rec.compute[0].Failures + rec.compute[1].Failures)
	v["datasource.scan_ms_per_split"] = ratio(float64(busy)/1e6, float64(attempts))
	aboveClient := float64(int64(rec.compute[1].BusyTime) - get.busy)
	v["datasource.self_ns_per_row"] = ratio(aboveClient-v["connector.self_ms_per_split"]*1e6*float64(get.n), float64(rec.rowsRead[1]))
	v["datasource.rows"] = float64(rec.rowsScanned[0] + rec.rowsScanned[1])

	// connector, httpclient, link: the compute side of the wire.
	conn := in.after.conn
	v["connector.discover_ms"] = list.ms(list.dur)
	v["connector.open_ms_per_split"] = get.ms(get.in)
	v["connector.requests"] = float64(conn.Requests - in.before.conn.Requests)
	v["connector.fallbacks"] = float64(conn.Fallbacks - in.before.conn.Fallbacks)
	v["connector.fallback_bytes"] = float64(conn.FallbackBytes - in.before.conn.FallbackBytes)
	v["httpclient.get_ms_per_split"] = get.ms(get.busy)
	v["httpclient.self_ms_per_split"] = get.ms(get.busy - linkGet.busy)
	v["httpclient.retries"] = client("client.retries")
	v["httpclient.resumes"] = client("client.resumes")
	v["httpclient.cache_hits"] = client("client.cache.hit")
	link := in.after.link.Sub(in.before.link)
	v["link.bytes"] = float64(link.Bytes())
	v["link.requests"] = float64(link.Requests)
	v["link.wait_s"] = link.Wait.Seconds()
	if rate := in.bed.link.Rate(); rate > 0 {
		v["link.busy_s"] = float64(link.Bytes()) / rate
		v["link.utilization"] = v["link.busy_s"] / in.wall.Seconds()
	}

	// handler, proxy, node, store, filters: the storage side.
	below := pget.busy + pput.busy + sums["proxy.head"].busy + sums["proxy.list"].busy
	v["handler.serve_ms_per_req"] = handler.ms(handler.dur)
	v["handler.self_ms_per_req"] = handler.ms(handler.dur - handler.out - below)
	v["handler.write_ms_per_req"] = handler.ms(handler.out)
	uncached := sums["proxy.get#"]
	if miss := sums["proxy.get#miss"]; miss.n > 0 {
		uncached = miss
	}
	hits := sums["proxy.get#hit"]
	v["proxy.get_ms_per_split"] = uncached.ms(uncached.busy)
	v["proxy.get_cached_ms_per_split"] = hits.ms(hits.busy)
	v["proxy.self_ms_per_get"] = pget.ms(pget.busy - (fcsv.dur - fcsv.in - fcsv.out) - sget.busy)
	v["proxy.put_ms_per_object"] = pput.ms(pput.busy)
	v["proxy.bytes_from_nodes"] = float64(in.after.proxy.BytesFromNodes - in.before.proxy.BytesFromNodes)
	v["proxy.bytes_to_client"] = float64(in.after.proxy.BytesToClient - in.before.proxy.BytesToClient)
	v["proxy.failovers"] = cluster("proxy.get.failovers")
	v["proxy.stale_skips"] = cluster("proxy.get.stale_skips")
	v["proxy.repair_pending"] = float64(in.after.cluster["proxy.repair.pending"])
	served := cluster("resultcache.hits") + cluster("resultcache.misses") + cluster("resultcache.collapses")
	v["resultcache.hit_ratio"] = ratio(cluster("resultcache.hits"), served)
	for _, name := range []string{"collapses", "invalidations", "fill_mismatch", "evictions"} {
		v["resultcache."+name] = cluster("resultcache." + name)
	}
	v["ring.epoch"] = float64(in.bed.cluster.Ring().Epoch())
	node, nodeBefore := in.after.node, in.before.node
	v["node.bytes_read"] = float64(node.BytesRead - nodeBefore.BytesRead)
	v["node.bytes_sent"] = float64(node.BytesSent - nodeBefore.BytesSent)
	v["node.filter_s"] = (node.FilterTime - nodeBefore.FilterTime).Seconds()
	v["node.requests"] = float64(node.Requests - nodeBefore.Requests)
	v["node.errors"] = float64(node.Errors - nodeBefore.Errors)
	v["store.get_ms_per_split"] = sget.ms(sget.busy)
	v["store.put_ms_per_object"] = sput.ms(sput.busy)
	v["store.bytes_written_per_user_byte"] = ratio(float64(in.after.written-in.before.written), float64(rec.userBytes))

	var all storlet.Stats
	for name, a := range in.after.filters {
		b := in.before.filters[name]
		all.Invocations += a.Invocations - b.Invocations
		all.Errors += a.Errors - b.Errors
		all.Rejections += a.Rejections - b.Rejections
		all.BytesIn += a.BytesIn - b.BytesIn
		all.BytesOut += a.BytesOut - b.BytesOut
		all.WallTime += a.WallTime - b.WallTime
	}
	v["storlet.run_ms_per_split"] = ratio(float64(all.WallTime)/1e6, float64(all.Invocations))
	v["storlet.invocations"] = float64(all.Invocations)
	v["storlet.errors"] = float64(all.Errors)
	v["storlet.rejections"] = float64(all.Rejections)
	v["storlet.bytes_in"] = float64(all.BytesIn)
	v["storlet.bytes_out"] = float64(all.BytesOut)
	perFilter := func(name string, s spanSum) (ms, mbPerS, outPerIn float64) {
		a, b := in.after.filters[name], in.before.filters[name]
		ms = s.ms(s.dur - s.in - s.out)
		bytesPerRun := ratio(float64(a.BytesIn-b.BytesIn), float64(a.Invocations-b.Invocations))
		return ms, ratio(bytesPerRun/1e6, ms/1e3), ratio(float64(a.BytesOut-b.BytesOut), float64(a.BytesIn-b.BytesIn))
	}
	v["csvfilter.invoke_ms_per_split"], v["csvfilter.mb_per_s"], v["csvfilter.bytes_out_per_byte_in"] = perFilter(csvfilter.FilterName, fcsv)
	v["etl.cleanse_ms_per_object"], v["etl.mb_per_s"], _ = perFilter(etl.CleanseName, fetl)

	// trace: is the traced half of the run like the untraced half, and do
	// the layers account for the time the client saw?
	p50 := quantile(rec.latMs[0], 0.5)
	v["trace.overhead_pct"] = 100 * ratio(quantile(rec.latMs[1], 0.5)-p50, p50)
	v["trace.spans"] = float64(len(in.spans))
	// The client's side says how long it was blocked on the link. The other
	// side of the wire says why: token and delay waits, plus the time the
	// handler spent serving and not blocked on its own writes — which is
	// the sum of the storage layers' self times. Swapping the second for
	// the first inside the operations must give back the time the client
	// measured; it does only if the spans nest, the header crosses the
	// wire, and little of the work on the two sides overlaps.
	putBusy := sums["client.put"].busy
	blocked := float64(sums["link"].busy)
	rebuilt := float64(rec.linkWait[1]) + float64(handler.dur-handler.out)
	parallel := 1.0
	if !in.def.ingest {
		parallel = ratio(float64(rec.compute[1].BusyTime), float64(rec.compute[1].WallTime))
	}
	v["link.http_ms_per_req"] = sums["link"].ms(int64(blocked - rebuilt))
	if calls := float64(list.dur + get.busy + putBusy); calls > 0 && parallel > 0 && op.dur > 0 {
		onPath := float64(list.dur+putBusy) + float64(get.busy)/parallel
		v["trace.accounted_pct"] = 100 * (1 - onPath*(blocked-rebuilt)/calls/float64(op.dur))
	}

	out := make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		out[d.name] = metric{Value: v[d.name], Unit: d.unit}
	}
	return out
}
