package connector

import (
	"context"
	"fmt"
	"io"

	"scoop/internal/detmanifest"
	"scoop/internal/objectstore"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

// Compute-side fallback: the paper's baseline path, made automatic. When a
// pushdown request fails, before its first byte or mid-stream, with a class
// that falls back (storlet.Failures), the connector re-issues a *plain* GET
// and evaluates the same task chain locally on a compute-side storlet engine.
// The query still completes with identical bytes — the degradation cost is
// ingest volume (whole split instead of filtered output), which is exactly
// what the Fallbacks/FallbackBytes counters expose for EXPERIMENTS.

// EnableFallback arms the connector's compute-side degradation path. engine
// must have the same filters registered as the store's engine (core wires
// both from the same registration list).
//
// Arming is gated per request by the determinism manifest: falling back —
// especially mid-stream, where the delivered prefix of the re-run is
// discarded — is only sound when every filter in the chain provably maps
// identical inputs to identical bytes. Chains containing an unproven filter
// behave as if fallback were never armed and surface the store's typed error.
func (c *Connector) EnableFallback(engine *storlet.Engine) {
	c.fbEngine = engine
	if c.determinism == nil {
		c.determinism = detmanifest.IsProven
	}
}

// SetDeterminism overrides the proof source consulted by the fallback gate
// (default: the generated detmanifest). Tests registering ad-hoc filters use
// it to vouch for — or disavow — their fixtures.
func (c *Connector) SetDeterminism(proven func(name string) bool) {
	c.determinism = proven
}

// chainProven reports whether every filter in the task chain is proven
// deterministic, i.e. whether compute-side replay is sound.
func (c *Connector) chainProven(tasks []*pushdown.Task) bool {
	if c.determinism == nil {
		return false
	}
	for _, t := range tasks {
		if !c.determinism(t.Filter) {
			return false
		}
	}
	return true
}

// openFallback opens the split plain and replays the task chain on the local
// engine, discarding the first skip bytes of filter output (already
// delivered to the caller before a mid-stream failure; filters are
// deterministic, so the re-run's prefix is byte-identical). cause is the
// pushdown failure being degraded.
func (c *Connector) openFallback(ctx context.Context, split Split, tasks []*pushdown.Task, skip int64, cause error) (io.ReadCloser, error) {
	// Plain GET from the split start to the object's END, mirroring the
	// object server's fetch for filtered requests: the record straddling the
	// split boundary must be completable, and the chain's RangeEnd stops it
	// just past the boundary.
	raw, info, err := c.client.GetObject(ctx, split.Account, split.Container, split.Object,
		objectstore.GetOptions{RangeStart: split.Start})
	if err != nil {
		return nil, fmt.Errorf("connector: fallback open %s: %w (degraded from: %w)", split, err, cause)
	}
	c.requests.Add(1)
	size := split.ObjectSize
	if size <= 0 {
		// Ranged HTTP responses report the range length, not the object
		// size; reconstruct the absolute size from the offset.
		size = split.Start + info.Size
	}
	end := split.End
	if end <= 0 || end > size {
		end = size
	}
	// Same execution order the store would have used: object-stage filters
	// first, then proxy-stage.
	objectStage, proxyStage := pushdown.SplitByStage(tasks)
	chain := make([]*pushdown.Task, 0, len(tasks))
	chain = append(chain, objectStage...)
	chain = append(chain, proxyStage...)
	// Raw bytes count as ingested (that IS the degradation cost) and as
	// fallback bytes (so EXPERIMENTS can split the two).
	in := &counted{rc: &counted{rc: raw, n: &c.bytesIngested}, n: &c.bytesFallback}
	out, err := c.fbEngine.Open(ctx, chain, in, split.Start, end, size)
	if err != nil {
		return nil, fmt.Errorf("connector: fallback filter %s: %w (degraded from: %w)", split, err, cause)
	}
	if skip > 0 {
		if _, err := io.CopyN(io.Discard, out, skip); err != nil {
			out.Close()
			return nil, fmt.Errorf("connector: fallback resync %s at %d: %w (degraded from: %w)", split, skip, err, cause)
		}
	}
	c.fallbacks.Add(1)
	return out, nil
}

// fallbackOnce is the connector's reopen rule for a pushdown stream (see
// objectstore.NewRecoveringReader): on a failure whose class falls back
// (storlet.Failures) it swaps in a compute-side fallback stream resynced
// past the bytes already delivered, once; any other or further failure is
// surfaced as it is.
func (c *Connector) fallbackOnce(ctx context.Context, split Split, tasks []*pushdown.Task) func(int64, error) (io.ReadCloser, error) {
	fellBack := false
	return func(delivered int64, cause error) (io.ReadCloser, error) {
		if fellBack || !storlet.Classify(cause).Fallback {
			return nil, cause
		}
		fellBack = true
		return c.openFallback(ctx, split, tasks, delivered, cause)
	}
}
