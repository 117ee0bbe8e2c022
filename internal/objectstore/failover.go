package objectstore

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"

	"scoop/internal/pushdown"
)

// errStaleReplica marks a replica skipped because it holds a version other
// than the registry-committed ETag the read is pinned to.
var errStaleReplica = errors.New("objectstore: stale replica")

// peekFirst forces a replica's stream to produce its first byte (or a clean
// EOF) before the proxy commits to it, converting open-then-fail streams —
// a node that accepts the request and dies before sending anything — into
// failures the replica loop can still route around. The peeked bytes sit in
// a minimum-size bufio buffer and are replayed to the caller (as is any
// error that arrived with them), so the stream is byte-identical; reads
// larger than the buffer bypass it.
func peekFirst(rc io.ReadCloser) (io.ReadCloser, error) {
	br := bufio.NewReaderSize(rc, 16)
	if _, err := br.Peek(1); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return struct {
		io.Reader
		io.Closer
	}{br, rc}, nil
}

// resumeOnReplicas is the proxy's reopen rule for plain (unfiltered) reads
// (see recoveringReader): when the serving replica's stream fails after its
// first byte — node crash, disk error, injected truncation — the replicas
// after nodes[idx] are tried from the break, so the failure is invisible to
// the client and the delivered stream stays byte-identical. The walk only
// moves forward: a replica that failed once is not retried.
//
// The resume is version-pinned to etag: a replica holding another version
// would splice foreign bytes into the delivered prefix. Filtered (storlet)
// streams never get this: a filter's output is not byte-addressable, so
// re-entering it at an offset would be exactly the non-idempotent retry the
// storlet path must avoid.
func (p *Proxy) resumeOnReplicas(ctx context.Context, nodes []*Node, idx int, path, etag string, end int64) func(int64, error) (io.ReadCloser, error) {
	return func(off int64, cause error) (io.ReadCloser, error) {
		rc, _, i, err := p.fetchReplica(ctx, nodes[idx+1:], path, off, end, nil, etag)
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return nil, cerr
			}
			return nil, fmt.Errorf("objectstore: read %s failed at offset %d and no replica could resume: %w",
				path, off, cause)
		}
		idx += 1 + i
		p.count("proxy.get.resumes")
		return rc, nil
	}
}

// fetchReplica opens the object on the first replica that can deliver its
// first byte, trying the remaining ring replicas on any failure — including
// streams that open successfully and die before producing data (peekFirst).
// When wantETag is non-empty, replicas holding any other version are
// skipped (a quorum PUT may have missed a replica; a migration may not
// have reached one yet). It returns the stream, the object metadata, and
// the index of the serving replica so mid-stream failover can continue
// down the ring.
func (p *Proxy) fetchReplica(ctx context.Context, nodes []*Node, path string, start, end int64, tasks []*pushdown.Task, wantETag string) (io.ReadCloser, ObjectInfo, int, error) {
	var lastErr error = ErrNotFound
	for i, node := range nodes {
		if err := ctx.Err(); err != nil {
			return nil, ObjectInfo{}, 0, err
		}
		rc, info, err := node.GetVersion(ctx, path, start, end, tasks, wantETag)
		if errors.Is(err, errStaleReplica) {
			p.count("proxy.get.stale_skips")
			lastErr = err
			continue
		}
		if err != nil {
			// A pushdown refusal comes from the SHARED storlet engine, not
			// this replica's disk — another replica would refuse identically.
			// Abort the ring walk so the refusal surfaces once (typed, for
			// the 503 path) instead of as N spurious failovers.
			if IsPushdownUnavailable(err) || IsFilterFailure(err) {
				return nil, ObjectInfo{}, 0, err
			}
			lastErr = err
			continue
		}
		pk, perr := peekFirst(rc)
		if perr != nil {
			rc.Close()
			if IsPushdownUnavailable(perr) || IsFilterFailure(perr) {
				return nil, ObjectInfo{}, 0, perr
			}
			lastErr = fmt.Errorf("objectstore: replica %s failed before first byte: %w", node.Name(), perr)
			continue
		}
		return pk, info, i, nil
	}
	return nil, ObjectInfo{}, 0, lastErr
}
