package objectstore

import (
	"io"
	"strings"
	"testing"
)

// closeLog records the order streams were closed in.
type closeLog struct {
	io.Reader
	name  string
	order *[]string
}

func (c closeLog) Close() error { *c.order = append(*c.order, c.name); return nil }

// statused is a stream that knows its cache status.
type statused struct{ io.ReadCloser }

func (statused) CacheStatus() string { return "hit" }

// TestCountedBody pins what the five accounting wrappers it replaced each
// promised: bytes are reported once, on the first Close only, after the
// stream and then the extra closer are shut, and CacheStatus is forwarded.
func TestCountedBody(t *testing.T) {
	var order []string
	var flushed []int64
	body := &countedBody{
		rc:      statused{closeLog{strings.NewReader("0123456789"), "rc", &order}},
		also:    closeLog{nil, "also", &order},
		onClose: func(n int64) { order = append(order, "flush"); flushed = append(flushed, n) },
	}
	if _, err := io.CopyN(io.Discard, body, 7); err != nil {
		t.Fatal(err)
	}
	if got := body.CacheStatus(); got != "hit" {
		t.Errorf("CacheStatus = %q, want forwarded \"hit\"", got)
	}
	for i := 0; i < 2; i++ {
		if err := body.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if len(flushed) != 1 || flushed[0] != 7 {
		t.Errorf("onClose calls = %v, want one call with 7", flushed)
	}
	if strings.Join(order, ",") != "rc,also,flush" {
		t.Errorf("close order = %v, want rc, also, flush", order)
	}
	plain := &countedBody{rc: io.NopCloser(strings.NewReader("")), onClose: func(int64) {}}
	if got := plain.CacheStatus(); got != "" {
		t.Errorf("CacheStatus over a plain stream = %q, want empty", got)
	}
}
