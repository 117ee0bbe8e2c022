package faultinject

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

func task(filter string) *pushdown.Task { return &pushdown.Task{Filter: filter} }

// ident is a plain pass-through filter to wrap.
var ident = storlet.FilterFunc{FilterName: "ident", Fn: func(_ *storlet.Context, in io.Reader, out io.Writer) error {
	_, err := io.Copy(out, in)
	return err
}}

func invoke(t *testing.T, f storlet.Filter, input string) (string, error) {
	t.Helper()
	var out strings.Builder
	err := f.Invoke(&storlet.Context{Ctx: context.Background()}, strings.NewReader(input), &out)
	return out.String(), err
}

func TestFilterFaultScriptedWindow(t *testing.T) {
	ff := &FilterFault{Inner: ident, Schedule: NewSchedule(
		Rule{From: 2, To: 4, Op: OpInvoke, Fault: Fault{Kind: ConnError}},
	)}
	for i := 1; i <= 5; i++ {
		got, err := invoke(t, ff, "data")
		inWindow := i >= 2 && i < 4
		if inWindow {
			if !errors.Is(err, ErrInjected) {
				t.Errorf("invocation %d: err = %v, want injected", i, err)
			}
			if got != "" {
				t.Errorf("invocation %d produced output %q before failing", i, got)
			}
		} else if err != nil || got != "data" {
			t.Errorf("invocation %d: %q, %v", i, got, err)
		}
	}
	if n := ff.Schedule.Requests(); n != 5 {
		t.Errorf("sequenced %d invocations, want 5", n)
	}
}

func TestFilterFaultPanicIsContainedBySandbox(t *testing.T) {
	ff := &FilterFault{Inner: ident, Schedule: NewSchedule(
		Rule{From: 1, To: 2, Op: OpInvoke, Fault: Fault{Kind: Panic}},
	)}
	e := storlet.NewEngine(storlet.Limits{})
	if err := e.Register(ff); err != nil {
		t.Fatal(err)
	}
	// First invocation panics inside the sandbox: the caller sees a typed
	// FilterError, not a crashed process.
	rc, err := e.RunChain(&storlet.Context{RangeEnd: 4, ObjectSize: 4}, []*pushdown.Task{task("ident")}, strings.NewReader("data"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = io.ReadAll(rc)
	rc.Close()
	var fe *storlet.FilterError
	if !errors.As(err, &fe) || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("scripted panic surfaced as %v, want contained FilterError", err)
	}
	// Second invocation is past the window and works.
	rc, err = e.RunChain(&storlet.Context{RangeEnd: 4, ObjectSize: 4}, []*pushdown.Task{task("ident")}, strings.NewReader("data"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || string(b) != "data" {
		t.Fatalf("post-window invocation: %q, %v", b, err)
	}
}

func TestFilterFaultTruncate(t *testing.T) {
	ff := &FilterFault{Inner: ident, Schedule: NewSchedule(
		Rule{From: 1, To: 2, Op: OpInvoke, Fault: Fault{Kind: Truncate, AfterBytes: 3}},
	)}
	got, err := invoke(t, ff, "abcdef")
	if got != "abc" {
		t.Errorf("delivered %q, want the 3-byte prefix", got)
	}
	if !errors.Is(err, ErrTruncated) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncation error = %v", err)
	}
}

func TestFilterFaultLatencyHonorsContext(t *testing.T) {
	ff := &FilterFault{Inner: ident, Schedule: NewSchedule(
		Rule{From: 1, To: 2, Op: OpInvoke, Fault: Fault{Kind: Latency, Delay: time.Hour}},
	)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out strings.Builder
	start := time.Now()
	err := ff.Invoke(&storlet.Context{Ctx: ctx}, strings.NewReader("x"), &out)
	if !errors.Is(err, ErrInjected) || !errors.Is(err, context.Canceled) {
		t.Errorf("aborted latency error = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("latency ignored cancellation: %v", elapsed)
	}
}

func TestFilterFaultNilScheduleAndNameMatch(t *testing.T) {
	ff := &FilterFault{Inner: ident}
	if ff.Name() != "ident" {
		t.Errorf("name = %q", ff.Name())
	}
	if got, err := invoke(t, ff, "clean"); err != nil || got != "clean" {
		t.Errorf("nil schedule: %q, %v", got, err)
	}
	// A rule scoped to a different filter name never fires.
	ff = &FilterFault{Inner: ident, Schedule: NewSchedule(
		Rule{Op: OpInvoke, PathSubstr: "other-filter", Fault: Fault{Kind: ConnError}},
	)}
	if got, err := invoke(t, ff, "clean"); err != nil || got != "clean" {
		t.Errorf("mismatched path rule fired: %q, %v", got, err)
	}
}
