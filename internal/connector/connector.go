// Package connector is the Stocator analog (paper §V): the storage driver
// compute tasks use to talk to the object store. It performs partition
// discovery (dividing each object's size by the chunk size, as the Hadoop
// RDD does), issues ranged GETs for each partition, and — the Scoop
// extension — injects pushdown tasks into those requests so filters execute
// at the store.
package connector

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"scoop/internal/csvio"
	"scoop/internal/metrics"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

// DefaultChunkSize mirrors the HDFS default split size the paper discusses
// (§VII notes the chunk size is an HDFS notion that object stores inherit).
const DefaultChunkSize = 64 << 20

// Split is one unit of parallel work: a byte range of one object.
type Split struct {
	Account   string
	Container string
	Object    string
	// Start/End bound the byte range [Start, End) of this split.
	Start int64
	End   int64
	// ObjectSize is the full object size, for record-alignment decisions.
	ObjectSize int64
}

// String identifies the split in logs.
func (s Split) String() string {
	return fmt.Sprintf("%s/%s/%s[%d:%d]", s.Account, s.Container, s.Object, s.Start, s.End)
}

// Stats counts the connector's traffic from the compute cluster's viewpoint
// — the ingestion volume Fig. 9(c) contrasts with and without Scoop.
type Stats struct {
	// BytesIngested is the total data pulled from the object store.
	BytesIngested int64
	// Requests is the number of GETs issued.
	Requests int64
	// Fallbacks counts pushdown requests degraded to plain GET + local
	// (compute-side) filter evaluation.
	Fallbacks int64
	// FallbackBytes is the raw ingest volume attributable to fallbacks —
	// bytes that pushdown would have filtered at the store.
	FallbackBytes int64
}

// Connector binds a store client with chunking configuration.
type Connector struct {
	client    objectstore.Client
	account   string
	chunkSize int64

	// fbEngine, when set via EnableFallback, evaluates pushdown chains
	// compute-side after the store refuses or aborts them.
	fbEngine  *storlet.Engine
	fbMetrics *metrics.Registry
	// determinism gates fallback per chain: replaying a filter (and
	// discarding its delivered prefix) is only sound when the filter is
	// proven deterministic. Defaults to the generated detmanifest.
	determinism func(name string) bool

	bytesIngested atomic.Int64
	requests      atomic.Int64
	fallbacks     atomic.Int64
	bytesFallback atomic.Int64
}

// New creates a connector for an account. chunkSize <= 0 uses the default.
func New(client objectstore.Client, account string, chunkSize int64) *Connector {
	if chunkSize <= 0 {
		chunkSize = DefaultChunkSize
	}
	return &Connector{client: client, account: account, chunkSize: chunkSize}
}

// Stats returns a snapshot of the connector's counters.
func (c *Connector) Stats() Stats {
	return Stats{
		BytesIngested: c.bytesIngested.Load(),
		Requests:      c.requests.Load(),
		Fallbacks:     c.fallbacks.Load(),
		FallbackBytes: c.bytesFallback.Load(),
	}
}

// ResetStats zeroes the counters.
func (c *Connector) ResetStats() {
	c.bytesIngested.Store(0)
	c.requests.Store(0)
	c.fallbacks.Store(0)
	c.bytesFallback.Store(0)
}

// Account returns the account this connector reads.
func (c *Connector) Account() string { return c.account }

// Client exposes the underlying store client (for uploads and admin).
func (c *Connector) Client() objectstore.Client { return c.client }

// DiscoverPartitions lists the objects under container/prefix and divides
// each into chunk-size splits — the "partition discovery" step that happens
// before a query is even specified (paper §V-B).
func (c *Connector) DiscoverPartitions(ctx context.Context, container, prefix string) ([]Split, error) {
	objects, err := c.client.ListObjects(ctx, c.account, container, prefix)
	if err != nil {
		return nil, fmt.Errorf("connector: discover: %w", err)
	}
	var out []Split
	for _, obj := range objects {
		for _, p := range csvio.Partitions(obj.Size, c.chunkSize) {
			out = append(out, Split{
				Account:    c.account,
				Container:  container,
				Object:     obj.Name,
				Start:      p.Start,
				End:        p.End,
				ObjectSize: obj.Size,
			})
		}
	}
	return out, nil
}

// Open issues the ranged GET for a split, tagging it with the pushdown chain
// when given. The returned stream is either raw object bytes (tasks == nil;
// record alignment is then the reader's job) or the filter output. With a
// fallback engine armed (EnableFallback), a pushdown request the store
// refuses or aborts mid-stream is transparently degraded to a plain GET
// evaluated compute-side — the caller still sees the filtered bytes.
func (c *Connector) Open(ctx context.Context, split Split, tasks []*pushdown.Task) (io.ReadCloser, error) {
	opts := objectstore.GetOptions{
		RangeStart: split.Start,
		RangeEnd:   split.End,
		Pushdown:   tasks,
	}
	rc, _, err := c.client.GetObject(ctx, split.Account, split.Container, split.Object, opts)
	if err != nil {
		if len(tasks) > 0 && c.fbEngine != nil && degradable(err) && c.chainProven(tasks) {
			return c.openFallback(ctx, split, tasks, 0, err)
		}
		return nil, fmt.Errorf("connector: open %s: %w", split, err)
	}
	c.requests.Add(1)
	stream := &counted{rc: rc, n: &c.bytesIngested}
	if len(tasks) > 0 && c.fbEngine != nil && c.chainProven(tasks) {
		return objectstore.NewRecoveringReader(stream, 0, objectstore.UnknownEnd,
			c.fallbackOnce(ctx, split, tasks)), nil
	}
	return stream, nil
}

// Upload stores an object through the connector's account.
func (c *Connector) Upload(ctx context.Context, container, object string, r io.Reader) (objectstore.ObjectInfo, error) {
	return c.client.PutObject(ctx, c.account, container, object, r, nil)
}

type counted struct {
	rc io.ReadCloser
	n  *atomic.Int64
}

func (c *counted) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *counted) Close() error { return c.rc.Close() }
