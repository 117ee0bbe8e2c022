package agg

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"scoop/internal/sql/types"
)

func sumOf(xs ...float64) *Acc {
	var a Acc
	for _, x := range xs {
		a.addSum(x)
	}
	return &a
}

func parsed(text string) *Acc {
	var a Acc
	a.parseSum(text)
	return &a
}

// A sum is exact, rounds once, and travels as a decimal while every value is
// one and as p/q otherwise; the text reads back to the same sum.
func TestSumExact(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		text string
		want float64
	}{
		{nil, "0", 0},
		{[]float64{0.1, 0.2}, "0.3", 0.3}, // a float fold gives 0.30000000000000004
		{[]float64{1234.5, 0.07}, "1234.57", 1234.57},
		{[]float64{-0.000005}, "-0.000005", -0.000005},
		{[]float64{2251799813.685247, -2251799813.685247}, "0", 0}, // |n| just below 2⁵¹
		{[]float64{0.1, 1e-17}, "324518553658426759235011386418931/3245185536584267267831560205762560", 0.1}, // 1/10 and 1e-17's binary value
		{[]float64{1.0 / 3, 2.0 / 3, -1}, "-1/18014398509481984", -0x1p-54},
		{[]float64{1e300, 1, -1e300}, "1/1", 1}, // a float fold gives 0
		{[]float64{math.Inf(1), 1}, "+Inf", math.Inf(1)},
		{[]float64{math.Inf(-1), 0.5}, "-Inf", math.Inf(-1)},
		{[]float64{math.Inf(1), math.Inf(-1)}, "NaN", math.NaN()},
	} {
		s := sumOf(c.xs...)
		text := string(s.appendSum(nil))
		back := parsed(text)
		if text != c.text || math.Float64bits(s.sumFloat()) != math.Float64bits(c.want) ||
			math.Float64bits(back.sumFloat()) != math.Float64bits(s.sumFloat()) || string(back.appendSum(nil)) != text {
			t.Errorf("sum of %v = %v as %q (read back %v as %q), want %v as %q",
				c.xs, s.sumFloat(), text, back.sumFloat(), back.appendSum(nil), c.want, c.text)
		}
	}

	// Millionths that overflow int64 move to the exact path.
	var s Acc
	for range 5000 {
		s.addSum(2e9)
	}
	if s.more == nil || s.sumFloat() != 1e13 {
		t.Errorf("5000 × 2e9 = %v (slow path %v), want 1e13 on the slow path", s.sumFloat(), s.more != nil)
	}
	if back := parsed(string(s.appendSum(nil))); back.sumFloat() != 1e13 {
		t.Errorf("5000 × 2e9 read back as %v", back.sumFloat())
	}
	if n, ok := parseMicros([]byte("-9223372036854.775808")); !ok || n != math.MinInt64 {
		t.Errorf("parseMicros(MinInt64 millionths) = %d, %v", n, ok)
	}

	// Text that is neither form reads as zero.
	for _, text := range []string{"", "x", "1.2345678", "1/0", "1/-2", "a/b", "1.5/2", "-", "9223372036854.775808"} {
		if s := parsed(text); s.more != nil || s.micros != 0 {
			t.Errorf("parseSum(%q) = %+v, want zero", text, s)
		}
	}
}

// fuzzValues reads values out of data, nine bytes each: decimals with up to
// seven fraction digits, floats of any bits, huge values and now and then an
// infinity.
func fuzzValues(data []byte) []float64 {
	var xs []float64
	for ; len(data) >= 9; data = data[9:] {
		u := binary.LittleEndian.Uint64(data[1:])
		var x float64
		switch data[0] % 8 {
		case 0, 1, 2:
			x = float64(int64(u%2e12)-1e12) / math.Pow10(int(data[0]/8)%8)
		case 3, 4:
			x = math.Float64frombits(u)
		case 5:
			x = float64(int64(u)) * 1e280
		case 6:
			x = math.Inf(1 - 2*int(u%2))
		default:
			x = float64(int64(u%2e9)) * 2.5e3
		}
		if math.IsNaN(x) {
			x = 0
		}
		xs = append(xs, x)
	}
	return xs
}

// SUM and AVG of a multiset of values are the same bits whatever the order
// of the values and however they are cut into partials, which travel as
// cells and merge in any order.
func FuzzSumOrderFree(f *testing.F) {
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x0b\x01\x02\x03\x04\x05\x06\x07\x08\x03\x99\x99\x99\x99\x99\x99\xb9\x3f"), int64(1))
	f.Add([]byte("\x05\x01\x00\x00\x00\x00\x00\x00\x00\x0d\xff\xff\xff\xff\xff\xff\xff\xff\x07\x55\x55\x55\x55\x55\x55\x55\x55"), int64(2))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		xs := fuzzValues(data)
		rng := rand.New(rand.NewSource(seed))
		fold := func(order []int) *Acc {
			a := &Acc{}
			for _, i := range order {
				a.Add(Sum, types.FloatV(xs[i]))
			}
			return a
		}
		same := func(a, b *Acc) bool {
			for _, kind := range []Kind{Sum, Avg} {
				va, vb := a.Value(kind), b.Value(kind)
				if va.T != vb.T || math.Float64bits(va.F) != math.Float64bits(vb.F) {
					return false
				}
			}
			return true
		}
		in := make([]int, len(xs))
		for i := range in {
			in[i] = i
		}
		want := fold(in)
		for range 2 {
			if got := fold(rng.Perm(len(xs))); !same(got, want) {
				t.Fatalf("%v permuted: sum %v, want %v", xs, got.Value(Sum), want.Value(Sum))
			}
		}

		// A random partition of a permutation, each part through its cells
		// as the wire carries them, merged in a random order.
		order := rng.Perm(len(xs))
		var parts [][]int
		for len(order) > 0 {
			n := 1 + rng.Intn(len(order))
			parts = append(parts, order[:n])
			order = order[n:]
		}
		merged := &Acc{}
		for _, i := range rng.Perm(len(parts)) {
			merged.MergeCells(Sum, wire(fold(parts[i]), Sum), types.Float)
		}
		if !same(merged, want) {
			t.Fatalf("%v in %d partials: sum %v, want %v", xs, len(parts), merged.Value(Sum), want.Value(Sum))
		}
	})
}
