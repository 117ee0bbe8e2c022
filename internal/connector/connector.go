// Package connector is the Stocator analog (paper §V): the storage driver
// compute tasks use to talk to the object store. It performs partition
// discovery (dividing each object's size by the chunk size, as the Hadoop
// RDD does), issues ranged GETs for each partition, and — the Scoop
// extension — injects pushdown tasks into those requests so filters execute
// at the store. It runs no filter itself: a pushdown read that fails comes
// back as the store's typed error, and the query reads the split again the
// baseline way (OpenFallback).
package connector

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"scoop/internal/csvio"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
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
	// Fallbacks counts splits read again the baseline way (OpenFallback)
	// after their pushdown read failed.
	Fallbacks int64
	// FallbackBytes is the raw ingest volume of those reads — bytes that
	// pushdown would have filtered at the store. BytesIngested counts them
	// too.
	FallbackBytes int64
}

// Connector binds a store client with chunking configuration.
type Connector struct {
	client    objectstore.Client
	account   string
	chunkSize int64

	bytesIngested atomic.Int64
	requests      atomic.Int64
	fallbacks     atomic.Int64
	bytesFallback atomic.Int64
}

// New creates a connector for an account. chunkSize <= 0 uses the default.
// DiscoverPartitions cuts objects at chunkSize; pushdown queries then merge
// adjacent splits with Coalesce.
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

// Coalesce merges runs of adjacent splits of one object, m at a time from
// the start of the run: m chunk splits become one split of m·ChunkSize, the
// last of a run possibly shorter. m is the largest that still leaves at
// least window splits; with no more than window splits to begin with it is
// 1 and the splits are returned as they are. A split covers the records
// that start in its range, so the merged splits cover what the originals
// did. Pushdown queries pass the driver's in-flight window, 2·Workers − 1:
// a filtered split sends back a fraction of its bytes, so fewer, larger
// splits save round trips without leaving a worker without a task.
func Coalesce(splits []Split, window int) []Split {
	var runs []int // lengths of the runs of adjacent splits
	for i, s := range splits {
		if i > 0 && s.follows(splits[i-1]) {
			runs[len(runs)-1]++
		} else {
			runs = append(runs, 1)
		}
	}
	count := func(m int) (n int) {
		for _, k := range runs {
			n += (k + m - 1) / m
		}
		return n
	}
	m := 1
	for len(runs) > 0 && m < slices.Max(runs) && count(m+1) >= window {
		m++
	}
	if m == 1 {
		return splits
	}
	out := make([]Split, 0, count(m))
	for _, k := range runs {
		run := splits[:k]
		for j := 0; j < k; j += m {
			s := run[j]
			s.End = run[min(j+m, k)-1].End
			out = append(out, s)
		}
		splits = splits[k:]
	}
	return out
}

// follows reports whether s is the range of p's object right after p.
func (s Split) follows(p Split) bool {
	return s.Account == p.Account && s.Container == p.Container && s.Object == p.Object && s.Start == p.End
}

// Open issues the ranged GET for a split, tagging it with the pushdown chain
// when given. The returned stream is either raw object bytes (tasks == nil;
// record alignment is then the reader's job) or the filter output. A request
// the store refuses fails with the store's typed error (storlet.Classify).
func (c *Connector) Open(ctx context.Context, split Split, tasks []*pushdown.Task) (io.ReadCloser, error) {
	opts := objectstore.GetOptions{
		RangeStart: split.Start,
		RangeEnd:   split.End,
		Pushdown:   tasks,
	}
	rc, _, err := c.client.GetObject(ctx, split.Account, split.Container, split.Object, opts)
	if err != nil {
		return nil, fmt.Errorf("connector: open %s: %w", split, err)
	}
	c.requests.Add(1)
	return &counted{rc: rc, n: &c.bytesIngested}, nil
}

// OpenFallback is Open with no tasks, for a split whose pushdown read
// failed: it counts one Fallbacks, and the stream's bytes in FallbackBytes
// as well as BytesIngested.
func (c *Connector) OpenFallback(ctx context.Context, split Split) (io.ReadCloser, error) {
	c.fallbacks.Add(1)
	rc, err := c.Open(ctx, split, nil)
	if err != nil {
		return nil, err
	}
	return &counted{rc: rc, n: &c.bytesFallback}, nil
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
