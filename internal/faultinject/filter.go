package faultinject

import (
	"context"
	"fmt"
	"io"

	"scoop/internal/clock"
	"scoop/internal/storlet"
)

// FilterFault wraps a storlet filter and makes it fail on a seeded schedule
// — the third injection seam, next to Transport (HTTP) and Store (disk).
// Each invocation of the wrapped filter advances the schedule under
// Op == OpInvoke with the filter name as the path, so a rule like
//
//	Rule{From: 3, To: 7, Op: OpInvoke, Fault: Fault{Kind: Panic}}
//
// panics invocations 3–6 of this filter and nothing else. Only *admitted*
// invocations advance the sequence: a breaker-open or overload refusal
// happens before Invoke is called, which keeps the fault window aligned
// with the invocations the engine actually runs.
//
// Supported kinds: Panic (the filter panics — the storlet sandbox must
// contain it), Latency (Delay before running, honoring Context.Ctx),
// Truncate (AfterBytes of real output then a failed write), and
// ConnError/Status/Blackout (the invocation errors immediately, wrapping
// ErrInjected).
type FilterFault struct {
	// Inner is the real filter.
	Inner storlet.Filter
	// Schedule scripts the faults; nil injects nothing.
	Schedule *Schedule
}

// Name implements storlet.Filter.
func (f *FilterFault) Name() string { return f.Inner.Name() }

// Invoke implements storlet.Filter.
func (f *FilterFault) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	fault := f.Schedule.Next(OpInvoke, f.Inner.Name())
	if fault == nil {
		return f.Inner.Invoke(ctx, in, out)
	}
	switch fault.Kind {
	case Panic:
		panic(fmt.Sprintf("faultinject: scripted panic in filter %q", f.Inner.Name()))
	case Latency:
		c := ctx.Ctx
		if c == nil {
			c = context.Background()
		}
		if err := clock.Sleep(c, fault.Delay); err != nil {
			return fmt.Errorf("%w: latency aborted: %w", ErrInjected, err)
		}
		return f.Inner.Invoke(ctx, in, out)
	case Truncate:
		lw := &limitedWriter{w: out, remaining: fault.AfterBytes}
		err := f.Inner.Invoke(ctx, in, lw)
		if lw.tripped {
			return fmt.Errorf("%w: %w after %d bytes: %w",
				ErrInjected, ErrTruncated, fault.AfterBytes, io.ErrUnexpectedEOF)
		}
		return err
	default: // ConnError, Status, Blackout: fail before producing output.
		return fmt.Errorf("%w: %s in filter %q", ErrInjected, fault.Kind, f.Inner.Name())
	}
}

// limitedWriter passes through AfterBytes of output, then fails the write.
type limitedWriter struct {
	w         io.Writer
	remaining int64
	tripped   bool
}

func (l *limitedWriter) Write(p []byte) (int, error) {
	if int64(len(p)) > l.remaining {
		p = p[:l.remaining]
	}
	n, err := l.w.Write(p)
	l.remaining -= int64(n)
	if err != nil {
		return n, err
	}
	if l.remaining <= 0 {
		l.tripped = true
		return n, fmt.Errorf("%w: %w", ErrInjected, ErrTruncated)
	}
	return n, nil
}
