package objectstore_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet/csvfilter"
)

// The result-cache pair: the same filtered GET against the same object,
// first with the cache disabled (every op executes the filter over the full
// block: the repeated-dashboard worst case), then with the cache enabled
// and a 99%-repeat mix (one entry invalidation per hundred ops re-fills it,
// the rest are hits). Their bytes/s ratio is the repeat-workload speedup
// recorded in BENCH_4.json. Both go through public API only.

// suiteSchema mirrors the GridPocket meter-reading schema used everywhere
// else in the evaluation.
const suiteSchema = "vid string, date string, index double, sumHC double, sumHP double, type string, city string, state string, lat double, long double"

// suiteData repeats one meter record (with varying vid/date) into a ~1 MB
// block.
var suiteData = func() []byte {
	var buf bytes.Buffer
	for i := 0; buf.Len() < 1<<20; i++ {
		fmt.Fprintf(&buf, "V%06d,2015-01-%02d 00:10:00,%d.25,%d.50,%d.75,elec,Rotterdam,NED,51.9225,4.4792\n",
			i%1000, 1+i%28, i, i/2, i/3)
	}
	return buf.Bytes()
}()

// cacheBenchTask is the filtered-GET chain the pair measures: a selective
// projection, so the cold path pays the full 1 MB filter execution and the
// cached path serves the small result body.
var cacheBenchTask = &pushdown.Task{
	Filter: "csv", Schema: suiteSchema,
	Columns:    []string{"vid", "index"},
	Predicates: []pushdown.Predicate{{Column: "city", Op: pushdown.OpLike, Value: "Rot%"}},
}

// newCacheBenchStore stands up the smallest in-process cluster that serves a
// filtered GET, with the result cache sized by cacheBytes (0 disables it),
// and uploads the 1 MB block as one object.
func newCacheBenchStore(b *testing.B, cacheBytes int64) *objectstore.Cluster {
	b.Helper()
	cluster, err := objectstore.NewCluster(objectstore.ClusterConfig{
		Proxies: 1, ObjectNodes: 2, DisksPerNode: 1, Replicas: 2, PartPower: 4,
		ResultCacheBytes: cacheBytes,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.Engine().Register(csvfilter.New()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	client := cluster.Client()
	if err := client.CreateContainer(ctx, "gp", "meters", nil); err != nil {
		b.Fatal(err)
	}
	if _, err := client.PutObject(ctx, "gp", "meters", "block.csv", bytes.NewReader(suiteData), nil); err != nil {
		b.Fatal(err)
	}
	return cluster
}

// cacheBenchGet is one dashboard request: a filtered GET of the block,
// drained and closed.
func cacheBenchGet(b *testing.B, client objectstore.Client) {
	rc, _, err := client.GetObject(context.Background(), "gp", "meters", "block.csv",
		objectstore.GetOptions{Pushdown: []*pushdown.Task{cacheBenchTask}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, rc); err != nil {
		b.Fatal(err)
	}
	rc.Close()
}

func BenchmarkResultCacheColdMiss(b *testing.B) {
	cluster := newCacheBenchStore(b, 0)
	client := cluster.Client()
	b.SetBytes(int64(len(suiteData)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cacheBenchGet(b, client)
	}
}

func BenchmarkResultCacheDashboard99(b *testing.B) {
	cluster := newCacheBenchStore(b, 256<<20)
	client := cluster.Client()
	cacheBenchGet(b, client) // warm the entry
	b.SetBytes(int64(len(suiteData)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%100 == 99 {
			cluster.ResultCache().InvalidatePath("/gp/meters/block.csv")
		}
		cacheBenchGet(b, client)
	}
}
