package storlet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scoop/internal/pushdown"
)

// trackedInput is a chain input that counts its Close calls and, on each,
// runs onClose first.
type trackedInput struct {
	io.Reader
	closes  atomic.Int64
	onClose func()
}

func (in *trackedInput) Close() error {
	if in.onClose != nil {
		in.onClose()
	}
	in.closes.Add(1)
	return nil
}

// copyFilter copies its input to its output.
func copyFilter(name string) FilterFunc {
	return FilterFunc{FilterName: name, Fn: func(_ *Context, in io.Reader, out io.Writer) error {
		_, err := io.Copy(out, in)
		return err
	}}
}

// TestOpenOwnsInput pins the contract of Engine.Open: closing its output
// stops the chain before the input is closed, the input is closed exactly
// once however often the output is, and a refused chain closes the input
// itself.
func TestOpenOwnsInput(t *testing.T) {
	stopped := make(chan struct{})
	spew := FilterFunc{FilterName: "spew", Fn: func(_ *Context, _ io.Reader, out io.Writer) error {
		defer close(stopped)
		for {
			if _, err := out.Write([]byte("xxxxxxxx")); err != nil {
				return err
			}
		}
	}}
	e := newTestEngine(t, Limits{}, spew, upper)

	chainStopped := false
	in := &trackedInput{Reader: strings.NewReader(""), onClose: func() {
		select {
		case <-stopped:
			chainStopped = true
		case <-time.After(2 * time.Second):
		}
	}}
	out, err := e.Open(context.Background(), []*pushdown.Task{{Filter: "spew"}}, in, 0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(out, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		out.Close()
	}
	if !chainStopped {
		t.Error("the input was closed while the chain still wrote: the output must close first")
	}
	if n := in.closes.Load(); n != 1 {
		t.Errorf("input closed %d times, want once", n)
	}

	for _, chain := range [][]*pushdown.Task{
		{{Filter: "ghost"}},
		{{Filter: "upper"}, {Filter: "ghost"}},
	} {
		refused := &trackedInput{Reader: strings.NewReader("x")}
		if _, err := e.Open(context.Background(), chain, refused, 0, 1, 1); !errors.Is(err, ErrNotDeployed) {
			t.Errorf("Open(%s) error = %v, want ErrNotDeployed", chain[len(chain)-1].Filter, err)
		}
		if n := refused.closes.Load(); n != 1 {
			t.Errorf("refused chain ending in %s closed its input %d times, want once", chain[len(chain)-1].Filter, n)
		}
	}
}

// TestOpenRanges checks the range each stage is told: the first keeps
// [start, end) of an object of the given size, later stages read the whole
// derived stream.
func TestOpenRanges(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	record := func(name string) FilterFunc {
		return FilterFunc{FilterName: name, Fn: func(ctx *Context, in io.Reader, out io.Writer) error {
			mu.Lock()
			seen = append(seen, fmt.Sprintf("%s [%d,%d) of %d", name, ctx.RangeStart, ctx.RangeEnd, ctx.ObjectSize))
			mu.Unlock()
			_, err := io.Copy(out, in)
			return err
		}}
	}
	e := newTestEngine(t, Limits{}, record("a"), record("b"))
	in := &trackedInput{Reader: strings.NewReader("abc")}
	out, err := e.Open(context.Background(), []*pushdown.Task{{Filter: "a"}, {Filter: "b"}}, in, 3, 7, 10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(out)
	out.Close()
	if err != nil || string(b) != "abc" {
		t.Fatalf("got %q, %v", b, err)
	}
	want := fmt.Sprintf("a [3,7) of 10,b [0,%d) of 10", Unbounded)
	sort.Strings(seen)
	if got := strings.Join(seen, ","); got != want {
		t.Errorf("stage ranges = %s, want %s", got, want)
	}
}

// TestOpenEarlyCloseStopsEveryStage closes a two-stage chain after one byte:
// the first stage, blocked on a write nobody reads, must end too, and with
// it the chain's one concurrency slot.
func TestOpenEarlyCloseStopsEveryStage(t *testing.T) {
	e := newTestEngine(t, Limits{MaxConcurrent: 1, QueueWait: 2 * time.Second}, copyFilter("a"), copyFilter("b"))
	tasks := []*pushdown.Task{{Filter: "a"}, {Filter: "b"}}
	big := strings.Repeat("x", 1<<20)
	for i := 0; i < 3; i++ {
		out, err := e.Open(context.Background(), tasks, io.NopCloser(strings.NewReader(big)), 0, Unbounded, -1)
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		if _, err := io.ReadFull(out, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		out.Close()
	}
}
