package storlet

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"scoop/internal/pushdown"
)

// upper is a trivial test filter.
var upper = FilterFunc{
	FilterName: "upper",
	Fn: func(_ *Context, in io.Reader, out io.Writer) error {
		b, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		_, err = out.Write([]byte(strings.ToUpper(string(b))))
		return err
	},
}

// reverse reverses the whole stream (order-sensitive, for pipelining tests).
var reverse = FilterFunc{
	FilterName: "reverse",
	Fn: func(_ *Context, in io.Reader, out io.Writer) error {
		b, err := io.ReadAll(in)
		if err != nil {
			return err
		}
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		_, err = out.Write(b)
		return err
	},
}

var panicky = FilterFunc{
	FilterName: "panicky",
	Fn: func(*Context, io.Reader, io.Writer) error {
		panic("storage node on fire")
	},
}

func newTestEngine(t *testing.T, limits Limits, filters ...Filter) *Engine {
	t.Helper()
	e := NewEngine(limits)
	for _, f := range filters {
		if err := e.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func runTask(t *testing.T, e *Engine, filter, input string) (string, error) {
	t.Helper()
	ctx := &Context{
		Task:     &pushdown.Task{Filter: filter},
		RangeEnd: int64(len(input)), ObjectSize: int64(len(input)),
	}
	rc, err := e.RunChain(ctx, []*pushdown.Task{ctx.Task}, strings.NewReader(input))
	if err != nil {
		return "", err
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	return string(b), err
}

func TestRegisterAndRun(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper)
	got, err := runTask(t, e, "upper", "hello")
	if err != nil || got != "HELLO" {
		t.Fatalf("got %q, %v", got, err)
	}
	s := e.StatsFor("upper")
	if s.Invocations != 1 || s.BytesIn != 5 || s.BytesOut != 5 || s.Errors != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestRegisterValidation(t *testing.T) {
	e := NewEngine(Limits{})
	if err := e.Register(nil); err == nil {
		t.Error("nil filter should fail")
	}
	if err := e.Register(FilterFunc{FilterName: ""}); err == nil {
		t.Error("empty name should fail")
	}
	if err := e.Register(upper); err != nil {
		t.Fatal(err)
	}
	if err := e.Register(upper); err == nil {
		t.Error("duplicate should fail")
	}
	if got := e.Names(); len(got) != 1 || got[0] != "upper" {
		t.Errorf("Names = %v", got)
	}
	if err := e.Unregister("upper"); err != nil {
		t.Error(err)
	}
	if err := e.Unregister("upper"); err == nil {
		t.Error("double unregister should fail")
	}
}

func TestRunUnknownFilter(t *testing.T) {
	e := NewEngine(Limits{})
	ctx := &Context{Task: &pushdown.Task{Filter: "ghost"}}
	if _, err := e.RunChain(ctx, []*pushdown.Task{ctx.Task}, strings.NewReader("x")); err == nil {
		t.Error("unknown filter should fail")
	}
	if _, err := e.RunChain(nil, []*pushdown.Task{{Filter: "upper"}}, strings.NewReader("x")); err == nil {
		t.Error("nil context should fail")
	}
	if _, err := e.RunChain(&Context{}, []*pushdown.Task{nil}, strings.NewReader("x")); err == nil {
		t.Error("nil task should fail")
	}
}

func TestPanicIsSandboxed(t *testing.T) {
	e := newTestEngine(t, Limits{}, panicky)
	_, err := runTask(t, e, "panicky", "data")
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v", err)
	}
	if s := e.StatsFor("panicky"); s.Errors != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestTimeout(t *testing.T) {
	slow := FilterFunc{
		FilterName: "slow",
		Fn: func(_ *Context, in io.Reader, out io.Writer) error {
			time.Sleep(200 * time.Millisecond)
			_, err := io.Copy(out, in)
			return err
		},
	}
	e := newTestEngine(t, Limits{Timeout: 20 * time.Millisecond}, slow)
	_, err := runTask(t, e, "slow", "data")
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("err = %v", err)
	}
}

func TestOutputLimit(t *testing.T) {
	blowup := FilterFunc{
		FilterName: "blowup",
		Fn: func(_ *Context, _ io.Reader, out io.Writer) error {
			big := strings.Repeat("x", 1024)
			for i := 0; i < 100; i++ {
				if _, err := out.Write([]byte(big)); err != nil {
					return err
				}
			}
			return nil
		},
	}
	e := newTestEngine(t, Limits{MaxOutputBytes: 4096}, blowup)
	_, err := runTask(t, e, "blowup", "")
	if err == nil || !strings.Contains(err.Error(), "output limit") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunChainPipelining(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper, reverse)
	tasks := []*pushdown.Task{{Filter: "upper"}, {Filter: "reverse"}}
	base := &Context{RangeEnd: 3, ObjectSize: 3}
	rc, err := e.RunChain(base, tasks, strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	b, err := io.ReadAll(rc)
	if err != nil || string(b) != "CBA" {
		t.Fatalf("got %q, %v", b, err)
	}
}

func TestRunChainErrors(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper)
	if _, err := e.RunChain(&Context{}, nil, strings.NewReader("")); err == nil {
		t.Error("empty chain should fail")
	}
	tasks := []*pushdown.Task{{Filter: "upper"}, {Filter: "ghost"}}
	if _, err := e.RunChain(&Context{RangeEnd: 1, ObjectSize: 1}, tasks, strings.NewReader("x")); err == nil {
		t.Error("chain with unknown filter should fail")
	}
}

func TestStatsForUnknown(t *testing.T) {
	e := NewEngine(Limits{})
	if s := e.StatsFor("nope"); s.Invocations != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMaxConcurrentLimitsParallelism(t *testing.T) {
	var cur, max atomic.Int64
	slow := FilterFunc{
		FilterName: "slow",
		Fn: func(_ *Context, in io.Reader, out io.Writer) error {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
			_, err := io.Copy(out, in)
			return err
		},
	}
	e := newTestEngine(t, Limits{MaxConcurrent: 2}, slow)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := &Context{Task: &pushdown.Task{Filter: "slow"}, RangeEnd: 1, ObjectSize: 1}
			rc, err := e.RunChain(ctx, []*pushdown.Task{ctx.Task}, strings.NewReader("x"))
			if err != nil {
				return
			}
			io.Copy(io.Discard, rc)
			rc.Close()
		}()
	}
	wg.Wait()
	if got := max.Load(); got > 2 {
		t.Errorf("max concurrency = %d, want <= 2", got)
	}
	if e.StatsFor("slow").Invocations != 8 {
		t.Errorf("invocations = %d", e.StatsFor("slow").Invocations)
	}
}

func TestMaxConcurrentChainNoDeadlock(t *testing.T) {
	e := newTestEngine(t, Limits{MaxConcurrent: 1, Timeout: 2 * time.Second}, upper, reverse)
	tasks := []*pushdown.Task{{Filter: "upper"}, {Filter: "reverse"}}
	base := &Context{RangeEnd: 3, ObjectSize: 3}
	rc, err := e.RunChain(base, tasks, strings.NewReader("abc"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(b) != "CBA" {
		t.Fatalf("got %q, %v (chain must count as one slot)", b, err)
	}
}

func TestConcurrentInvocations(t *testing.T) {
	e := newTestEngine(t, Limits{}, upper)
	done := make(chan error, 20)
	for i := 0; i < 20; i++ {
		go func(i int) {
			input := fmt.Sprintf("msg-%d", i)
			ctx := &Context{
				Task:     &pushdown.Task{Filter: "upper"},
				RangeEnd: int64(len(input)), ObjectSize: int64(len(input)),
			}
			rc, err := e.RunChain(ctx, []*pushdown.Task{ctx.Task}, strings.NewReader(input))
			if err != nil {
				done <- err
				return
			}
			b, err := io.ReadAll(rc)
			rc.Close()
			if err == nil && string(b) != fmt.Sprintf("MSG-%d", i) {
				err = fmt.Errorf("got %q", b)
			}
			done <- err
		}(i)
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if s := e.StatsFor("upper"); s.Invocations != 20 {
		t.Errorf("invocations = %d", s.Invocations)
	}
}
