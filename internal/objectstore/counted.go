package objectstore

import (
	"io"
	"sync/atomic"
)

// countedBody is the store's one byte-counting stream: it counts what Read
// hands out and reports the total to onClose exactly once, on the first
// Close, after the wrapped stream and the optional extra closer are shut.
// Node, proxy, result-cache and load-balancer accounting all use it; only
// the callback differs. The counter is atomic because on the proxy-stage
// path a filter goroutine reads the stream while the client goroutine closes
// it.
type countedBody struct {
	rc      io.ReadCloser
	onClose func(n int64)
	// also is released after rc: the stream feeding a filter chain, which
	// never closes its input. Closing rc (the chain's pipe) first stops the
	// chain's goroutines, so they are no longer draining also.
	also   io.Closer
	n      atomic.Int64
	closed atomic.Bool
}

func (c *countedBody) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countedBody) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	err := c.rc.Close()
	if c.also != nil {
		if aerr := c.also.Close(); err == nil {
			err = aerr
		}
	}
	c.onClose(c.n.Load())
	return err
}

// CacheStatus implements CacheStatuser by delegation, so the handler (which
// sees only the outermost wrapper) can still emit HeaderCacheStatus.
func (c *countedBody) CacheStatus() string {
	if s, ok := c.rc.(CacheStatuser); ok {
		return s.CacheStatus()
	}
	return ""
}
