package main

import (
	"context"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"scoop/bench/shapedlink"
	"scoop/internal/compute"
	"scoop/internal/core"
	"scoop/internal/metrics"
	"scoop/internal/objectstore"
	"scoop/internal/storlet/csvfilter"
	"scoop/internal/storlet/etl"
)

const account = "bench"

// bedSpec is what a workload asks of its test bed.
type bedSpec struct {
	// procs sizes GOMAXPROCS, the compute workers and the connection pool.
	procs int
	// cacheBytes sizes the pushdown result cache; 0 turns it off.
	cacheBytes int64
	// dataDir backs the object nodes with DiskStores under it; "" keeps
	// them in memory.
	dataDir string
	// chunkSize is the connector's split size.
	chunkSize int64
	// tracer, when set, installs the seams of the traced run.
	tracer *tracer
}

// bed hosts both clusters in one process, joined by real HTTP on loopback:
// the storage cluster behind objectstore.NewHandler, and a Scoop compute
// instance whose store client crosses the shaped link.
type bed struct {
	spec    bedSpec
	cluster *objectstore.Cluster
	// store is the in-process client used for set-up and the oracle.
	store objectstore.Client
	// remote is the HTTP client that crosses the link, and client is what the
	// measured path calls: remote itself, or remote behind seam 2.
	remote        *objectstore.HTTPClient
	client        objectstore.Client
	clientMetrics *metrics.Registry
	link          *shapedlink.Link
	scoop         *core.Scoop
	// written counts bytes handed to the node stores (traced beds only).
	written atomic.Int64

	transport *http.Transport
	server    *http.Server
	served    chan error
}

func newBed(spec bedSpec) (*bed, error) {
	b := &bed{spec: spec, clientMetrics: metrics.NewRegistry()}
	cc := objectstore.DefaultClusterConfig()
	cc.ResultCacheBytes = spec.cacheBytes
	cc.DataDir = spec.dataDir
	if spec.tracer != nil {
		cc.StoreWrap = func(_ string, s objectstore.Store) objectstore.Store {
			return &tracedStore{Store: s, t: spec.tracer, written: &b.written}
		}
	}
	cluster, err := objectstore.NewCluster(cc)
	if err != nil {
		return nil, err
	}
	b.cluster = cluster
	if err := b.wire(); err != nil {
		b.Close()
		return nil, err
	}
	return b, nil
}

// wire deploys the filters, serves the cluster over HTTP on loopback and
// points a Scoop instance at it through the link. With a tracer it puts the
// seams of the traced run in between.
func (b *bed) wire() error {
	spec, tr := b.spec, b.spec.tracer
	engine := b.cluster.Engine()
	if err := core.RegisterStandardFilters(engine); err != nil {
		return err
	}
	b.store = b.cluster.Client()
	served := b.store
	if tr != nil {
		for _, name := range []string{csvfilter.FilterName, etl.CleanseName} {
			inner, _ := engine.Get(name)
			if err := engine.Unregister(name); err != nil {
				return err
			}
			if err := engine.Register(&tracedFilter{inner: inner, t: tr}); err != nil {
				return err
			}
		}
		served = &tracedClient{Client: b.store, t: tr, layer: "proxy"}
	}
	h := objectstore.NewHandler(served)
	h.SetRingInfo(func() (uint64, bool) {
		r := b.cluster.Ring()
		return r.Epoch(), r.Migrating()
	})
	var handler http.Handler = h
	if tr != nil {
		handler = traceMiddleware(tr, h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.server = &http.Server{Handler: handler}
	b.served = make(chan error, 1)
	go func() { b.served <- b.server.Serve(ln) }()

	b.transport = &http.Transport{
		MaxConnsPerHost:     spec.procs,
		MaxIdleConnsPerHost: spec.procs,
		IdleConnTimeout:     time.Minute,
	}
	b.link = shapedlink.New(b.transport)
	var rt http.RoundTripper = b.link
	if tr != nil {
		rt = &tracedTransport{next: b.link, t: tr}
	}
	b.remote = objectstore.NewHTTPClient("http://" + ln.Addr().String())
	b.remote.HTTP = &http.Client{Transport: rt}
	b.remote.Metrics = b.clientMetrics
	b.client = b.remote
	if tr != nil {
		b.client = &tracedClient{Client: b.remote, t: tr, layer: "client"}
	}
	b.scoop, err = core.New(core.Config{
		Client:    b.client,
		Account:   account,
		ChunkSize: spec.chunkSize,
		Compute:   compute.Config{Workers: spec.procs, Retries: 1},
	})
	return err
}

// Close stops the server, the connection pool and the cluster's loops, and
// waits for the serving goroutine.
func (b *bed) Close() {
	if b.server != nil {
		b.server.Close()
		<-b.served
	}
	if b.transport != nil {
		b.transport.CloseIdleConnections()
	}
	b.cluster.Close()
}

// storedBytes is what the object nodes hold: every file under the data
// directory for disk-backed nodes, the replicas' payload otherwise.
func (b *bed) storedBytes(ctx context.Context) (int64, error) {
	var total int64
	if b.spec.dataDir != "" {
		err := filepath.WalkDir(b.spec.dataDir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		return total, err
	}
	for _, n := range b.cluster.Nodes() {
		replicas, err := n.List(ctx, "")
		if err != nil {
			return 0, fmt.Errorf("list %s: %w", n.Name(), err)
		}
		for _, o := range replicas {
			total += o.Size
		}
	}
	return total, nil
}

// tempDataDir makes a fresh data directory under the output directory, so a
// run writes nowhere else.
func tempDataDir(outDir string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, "data-")
}
