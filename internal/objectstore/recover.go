package objectstore

import (
	"errors"
	"io"
)

// recoveringReader is the one "deliver bytes, then reopen at offset N" Read
// loop. It counts delivered bytes, hands bytes out before any error, treats
// an EOF short of its end as a failure, and on failure closes the broken
// stream and asks reopen for a replacement positioned at the current offset.
// A reopen error is terminal and sticky, and the reader fails closed after
// it. Its two callers, HTTPClient.GetObject and the proxy's plain GET, both
// know where the stream ends.
//
// The mechanics are all that is shared. WHEN resuming is legal — never
// offset-resume a filtered stream, never splice versions, how often and how
// long to retry — is the caller's business and lives in its reopen function.
type recoveringReader struct {
	rc     io.ReadCloser
	off    int64 // offset of the next byte to deliver
	end    int64 // exclusive end offset
	reopen func(off int64, cause error) (io.ReadCloser, error)
	err    error // sticky terminal error
}

// newRecoveringReader wraps rc, whose next byte is at offset off of a stream
// ending at end. reopen is called with the offset reached and the failure
// that interrupted the stream; it returns a stream continuing at that
// offset, or the error to surface.
func newRecoveringReader(rc io.ReadCloser, off, end int64, reopen func(off int64, cause error) (io.ReadCloser, error)) io.ReadCloser {
	return &recoveringReader{rc: rc, off: off, end: end, reopen: reopen}
}

func (r *recoveringReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	for {
		n, err := r.rc.Read(p)
		r.off += int64(n)
		if err == nil {
			return n, nil
		}
		if errors.Is(err, io.EOF) && r.off >= r.end {
			return n, io.EOF
		}
		// Mid-stream failure or short EOF. Bytes already in p go out first;
		// the next Read continues on the replacement or surfaces r.err.
		r.rc.Close()
		r.rc = brokenBody{}
		if nrc, rerr := r.reopen(r.off, err); rerr != nil {
			r.err = rerr
		} else {
			r.rc = nrc
		}
		if n > 0 {
			return n, nil
		}
		if r.err != nil {
			return 0, r.err
		}
	}
}

func (r *recoveringReader) Close() error { return r.rc.Close() }

// brokenBody is the failed-closed stream a recoveringReader holds once its
// stream broke, so a Read after a failed reopen fails instead of touching a
// closed body.
type brokenBody struct{}

func (brokenBody) Read([]byte) (int, error) { return 0, io.ErrUnexpectedEOF }
func (brokenBody) Close() error             { return nil }
