package objectstore

import (
	"context"
	"errors"
	"io"
	"testing"
)

// step is one scripted Read result: data handed out together with err.
type step struct {
	data string
	err  error
}

// scripted replays steps, one per Read, then EOFs; it records Close.
type scripted struct {
	steps  []step
	closed bool
}

func (s *scripted) Read(p []byte) (int, error) {
	if s.closed {
		panic("read after close")
	}
	if len(s.steps) == 0 {
		return 0, io.EOF
	}
	st := s.steps[0]
	s.steps = s.steps[1:]
	return copy(p, st.data), st.err
}

func (s *scripted) Close() error { s.closed = true; return nil }

var errLink = errors.New("link dropped")

// TestRecoveringReader drives the shared Read loop on scripted streams: what
// is delivered, what the reads return one by one, and what reopen was asked.
func TestRecoveringReader(t *testing.T) {
	type read struct {
		n   int
		err error
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name    string
		first   []step
		end     int64
		reopens []func(off int64, cause error) (io.ReadCloser, error) // consumed in order
		want    string
		reads   []read  // expected (n, err) of each Read until a non-nil err
		offs    []int64 // offsets reopen was called with
		after   error   // what Reads past the end of `reads` keep returning
	}{
		{
			name:  "error after n>0 bytes: bytes first, then continue",
			first: []step{{"abc", errLink}},
			end:   6,
			reopens: []func(int64, error) (io.ReadCloser, error){
				func(int64, error) (io.ReadCloser, error) { return &scripted{steps: []step{{"def", nil}}}, nil },
			},
			want:  "abcdef",
			reads: []read{{3, nil}, {3, nil}, {0, io.EOF}},
			offs:  []int64{3},
			after: io.EOF,
		},
		{
			name:  "short EOF with a known end is a failure",
			first: []step{{"ab", nil}, {"", io.EOF}},
			end:   4,
			reopens: []func(int64, error) (io.ReadCloser, error){
				func(int64, error) (io.ReadCloser, error) { return &scripted{steps: []step{{"cd", io.EOF}}}, nil },
			},
			want:  "abcd",
			reads: []read{{2, nil}, {2, io.EOF}},
			offs:  []int64{2},
			after: io.EOF,
		},
		{
			name:  "clean EOF with an unknown end",
			first: []step{{"ab", nil}, {"", io.EOF}},
			end:   UnknownEnd,
			want:  "ab",
			reads: []read{{2, nil}, {0, io.EOF}},
			after: io.EOF,
		},
		{
			name:  "reopen failure is sticky and later reads fail closed",
			first: []step{{"ab", errLink}},
			end:   4,
			reopens: []func(int64, error) (io.ReadCloser, error){
				func(_ int64, cause error) (io.ReadCloser, error) { return nil, ErrTruncated },
			},
			want:  "ab",
			reads: []read{{2, nil}, {0, ErrTruncated}},
			offs:  []int64{2},
			after: ErrTruncated,
		},
		{
			name:  "one-shot reopen: the second failure surfaces",
			first: []step{{"a", errLink}},
			end:   UnknownEnd,
			reopens: []func(int64, error) (io.ReadCloser, error){
				func(int64, error) (io.ReadCloser, error) { return &scripted{steps: []step{{"b", errLink}}}, nil },
				func(_ int64, cause error) (io.ReadCloser, error) { return nil, cause },
			},
			want:  "ab",
			reads: []read{{1, nil}, {1, nil}, {0, errLink}},
			offs:  []int64{1, 2},
			after: errLink,
		},
		{
			name:  "context cancelled between attempts",
			first: []step{{"", errLink}},
			end:   4,
			reopens: []func(int64, error) (io.ReadCloser, error){
				func(int64, error) (io.ReadCloser, error) { return nil, sleepCtx(ctx, 0) },
			},
			reads: []read{{0, context.Canceled}},
			offs:  []int64{0},
			after: context.Canceled,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			first := &scripted{steps: tc.first}
			var offs []int64
			reopens := tc.reopens
			r := NewRecoveringReader(first, 0, tc.end, func(off int64, cause error) (io.ReadCloser, error) {
				offs = append(offs, off)
				if !first.closed {
					t.Error("reopen called before the broken stream was closed")
				}
				if len(reopens) == 0 {
					t.Fatalf("unexpected reopen at %d (cause %v)", off, cause)
				}
				fn := reopens[0]
				reopens = reopens[1:]
				return fn(off, cause)
			})
			var got []byte
			buf := make([]byte, 8)
			for i, want := range tc.reads {
				n, err := r.Read(buf)
				got = append(got, buf[:n]...)
				if n != want.n || !errors.Is(err, want.err) || (want.err == nil) != (err == nil) {
					t.Fatalf("read %d = (%d, %v), want (%d, %v)", i, n, err, want.n, want.err)
				}
			}
			for i := 0; i < 2; i++ {
				if n, err := r.Read(buf); n != 0 || !errors.Is(err, tc.after) {
					t.Errorf("read past the end = (%d, %v), want (0, %v)", n, err, tc.after)
				}
			}
			if string(got) != tc.want {
				t.Errorf("delivered %q, want %q", got, tc.want)
			}
			if len(offs) != len(tc.offs) {
				t.Fatalf("reopen offsets = %v, want %v", offs, tc.offs)
			}
			for i := range offs {
				if offs[i] != tc.offs[i] {
					t.Fatalf("reopen offsets = %v, want %v", offs, tc.offs)
				}
			}
			if err := r.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
}
