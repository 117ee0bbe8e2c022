package shapedlink

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"
)

// echo is a base RoundTripper with no network under it: it drains the
// request body and answers with n zero bytes.
type echo struct{ n int }

func (e echo) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return nil, err
		}
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Body:       io.NopCloser(bytes.NewReader(make([]byte, e.n))),
		Request:    req,
	}, nil
}

func get(t *testing.T, l *Link, ctx context.Context) (int64, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://store/v1/a/c/o", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := l.RoundTrip(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return io.Copy(io.Discard, resp.Body)
}

// within reports whether got is inside want ± frac.
func within(got, want time.Duration, frac float64) bool {
	lo := time.Duration(float64(want) * (1 - frac))
	hi := time.Duration(float64(want) * (1 + frac))
	return got >= lo && got <= hi
}

func TestRateIsHonoured(t *testing.T) {
	const n, rate = 1 << 20, 4 << 20
	l := New(echo{n: n})
	l.Shape(rate, 0)
	start := time.Now()
	got, err := get(t, l, context.Background())
	if err != nil || got != n {
		t.Fatalf("read %d bytes, err %v; want %d", got, err, n)
	}
	// The idle bucket holds Burst bytes of credit; the rest pays the rate.
	want := time.Duration(float64(n-Burst) / rate * float64(time.Second))
	if elapsed := time.Since(start); !within(elapsed, want, 0.05) {
		t.Errorf("%d bytes at %d B/s took %v, want %v ± 5%%", n, rate, elapsed, want)
	}
}

func TestConcurrentBodiesShareOneBucket(t *testing.T) {
	const n, rate = 512 << 10, 4 << 20
	l := New(echo{n: n})
	l.Shape(rate, 0)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got, err := get(t, l, context.Background()); err != nil || got != n {
				t.Errorf("read %d bytes, err %v; want %d", got, err, n)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if sum := float64(2*n-Burst) / elapsed; sum > rate*1.05 {
		t.Errorf("two streams moved %.0f B/s together, want <= %d", sum, rate)
	}
}

func TestCancelAbortsTokenWait(t *testing.T) {
	l := New(echo{n: 256 << 10})
	l.Shape(1<<10, 0) // 256 KiB at 1 KiB/s would take minutes
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	_, err := get(t, l, ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("cancelled read returned after %v", elapsed)
	}
}

func TestCountersAreExact(t *testing.T) {
	const down, up = 100_000, 70_000
	l := New(echo{n: down})
	l.Shape(64<<20, time.Millisecond)
	before := l.Stats()
	for i := 0; i < 3; i++ {
		req, err := http.NewRequest(http.MethodPut, "http://store/v1/a/c/o", bytes.NewReader(make([]byte, up)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := l.RoundTrip(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	s := l.Stats().Sub(before)
	if s.Requests != 3 || s.BytesUp != 3*up || s.BytesDown != 3*down || s.Bytes() != 3*(up+down) {
		t.Errorf("stats = %+v, want 3 requests, %d up, %d down", s, 3*up, 3*down)
	}
	// Three round-trip delays at least; token waits come on top.
	if s.Waits < 3 || s.Wait < 3*time.Millisecond {
		t.Errorf("waits = %d (%v), want >= 3 (>= 3ms)", s.Waits, s.Wait)
	}
	l.Shape(0, 0)
	idle := l.Stats()
	if _, err := get(t, l, context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := l.Stats().Sub(idle); s.Waits != 0 || s.Requests != 1 || s.BytesDown != down {
		t.Errorf("unshaped stats = %+v, want 1 request, %d down, no waits", s, down)
	}
}
