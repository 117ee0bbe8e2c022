package faultinject

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"scoop/internal/clock"
)

// Transport is an http.RoundTripper that injects the schedule's faults into
// the compute→storage wire — the inter-cluster link the paper's Fig. 9(c)
// saturates is also the link that flakes first in practice. Wrap it around
// the HTTPClient's transport:
//
//	hc := objectstore.NewHTTPClient(url)
//	hc.HTTP = &http.Client{Transport: &faultinject.Transport{Schedule: sched}}
type Transport struct {
	// Base performs real round-trips; http.DefaultTransport when nil.
	Base http.RoundTripper
	// Schedule scripts the faults; nil injects nothing.
	Schedule *Schedule
	// Sleep replaces the latency wait, letting tests assert a latency
	// fault fired without paying wall-clock time. nil uses a real timer
	// that honors the request context.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (t *Transport) base() http.RoundTripper {
	if t.Base != nil {
		return t.Base
	}
	return http.DefaultTransport
}

// RoundTrip implements http.RoundTripper. Cancellation rides on the
// request's own context, per the RoundTripper contract.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	f := t.Schedule.Next(Op(req.Method), req.URL.Path)
	if f == nil {
		return t.base().RoundTrip(req)
	}
	switch f.Kind {
	case ConnError, Blackout:
		// The RoundTripper contract: on error, the body must be closed.
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("%w: connection refused (%s, seq %d)",
			ErrInjected, f.Kind, t.Schedule.Requests())
	case Status:
		if req.Body != nil {
			// The server "received" the request; consume the body like a
			// real server that errors after reading the upload.
			_, _ = io.Copy(io.Discard, req.Body)
			req.Body.Close()
		}
		return synthesize(req, f.Status), nil
	case Latency:
		sleep := t.Sleep
		if sleep == nil {
			sleep = clock.Sleep
		}
		if err := sleep(req.Context(), f.Delay); err != nil {
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, fmt.Errorf("%w: latency aborted: %w", ErrInjected, err)
		}
		return t.base().RoundTrip(req)
	case Truncate:
		resp, err := t.base().RoundTrip(req)
		if err != nil {
			return nil, err
		}
		// Content-Length stays as the server sent it: the mismatch between
		// the advertised and delivered byte counts is exactly what the
		// client's truncation detection must catch.
		resp.Body = &truncatedBody{rc: resp.Body, remaining: f.AfterBytes}
		return resp, nil
	default:
		return t.base().RoundTrip(req)
	}
}

// synthesize fabricates a well-formed error response, as if the server (or
// an intermediary) answered with the status before doing any work.
func synthesize(req *http.Request, status int) *http.Response {
	body := fmt.Sprintf("%s (injected)", http.StatusText(status))
	return &http.Response{
		Status:        strconv.Itoa(status) + " " + http.StatusText(status),
		StatusCode:    status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"text/plain"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}

// truncatedBody delivers the first remaining bytes of the wrapped body,
// then fails the stream the way a dropped connection does.
type truncatedBody struct {
	rc        io.ReadCloser
	remaining int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		return 0, fmt.Errorf("%w: %w", ErrTruncated, io.ErrUnexpectedEOF)
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	// Deliver the allowed bytes; the cut surfaces on the next Read so
	// callers see their data first, like a connection dropped between
	// packets.
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }
