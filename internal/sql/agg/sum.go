package agg

import (
	"bytes"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"strings"
)

// SUM and AVG add exactly. Each value x added counts as v(x): n/10⁶ when x
// is the float64 nearest a decimal n/10⁶ with |n| < 2⁵¹ (every meter
// reading is), the exact binary value of x otherwise. An Acc holds
// Σ v(x) without rounding, so it depends only on the multiset of values
// added: not on their order, nor on how they were cut into partials and
// merged. The result rounds once, in float.
//
// The fast path is Acc.micros, an integer of millionths, which allocates
// nothing. A value that is no such decimal, or a total that overflows int64,
// goes to the slow path, an exact fixed-point number in Acc.more.

// sumRest is the slow path of a sum: num / (10⁶·2^scale) exactly, the scale
// growing to the finest binary fraction added, and the float sum of the
// non-finite values, 0 while there are none ({0, ±Inf, NaN} adds up to one
// value in any order, so special is order-free too).
type sumRest struct {
	num     big.Int
	scale   uint
	special float64
	t       big.Int // scratch
}

// million is 10⁶, read only.
var million = big.NewInt(1e6)

// decimal returns n when x is the float64 nearest n/10⁶ and |n| < 2⁵¹.
func decimal(x float64) (int64, bool) {
	n := math.Round(x * 1e6)
	if math.Abs(n) < 1<<51 && n/1e6 == x {
		return int64(n), true
	}
	return 0, false
}

// addMicros is a + b, and false when that overflows.
func addMicros(a, b int64) (int64, bool) {
	s := a + b
	return s, (s > a) == (b > 0)
}

// addSum adds x to the sum.
func (a *Acc) addSum(x float64) {
	if n, ok := decimal(x); ok {
		a.addDecimal(n)
		return
	}
	//scoop:cold a value that is no whole number of millionths: a sum off the fast path
	a.addBinary(x)
}

// addBinary adds x, which is no whole number of millionths, to the slow
// path of the sum.
func (a *Acc) addBinary(x float64) {
	r := &a.ext().sumRest
	if math.IsInf(x, 0) || math.IsNaN(x) {
		r.special += x
		return
	}
	// x = m·2^e exactly, with m odd: x is not 0, which is a decimal.
	frac, exp := math.Frexp(x)
	m := int64(frac * (1 << 53))
	tz := bits.TrailingZeros64(uint64(m))
	m, e := m>>tz, exp-53+tz
	if e < 0 {
		r.rescale(uint(-e))
	}
	r.t.Mul(r.t.SetInt64(m), million)
	r.num.Add(&r.num, r.t.Lsh(&r.t, uint(e+int(r.scale))))
}

// addDecimal adds n millionths to the sum.
func (a *Acc) addDecimal(n int64) {
	if t, ok := addMicros(a.micros, n); ok {
		a.micros = t
		return
	}
	//scoop:cold the fast path overflows int64 millionths
	a.spill(n)
}

// spill moves the fast path's millionths to the slow path and starts the fast
// path again at n.
func (a *Acc) spill(n int64) {
	r := &a.ext().sumRest
	r.num.Add(&r.num, r.t.Lsh(r.t.SetInt64(a.micros), r.scale))
	a.micros = n
}

// rescale makes the scale at least scale, keeping the value.
func (r *sumRest) rescale(scale uint) {
	if scale > r.scale {
		r.num.Lsh(&r.num, scale-r.scale)
		r.scale = scale
	}
}

// mergeSum adds o's sum to a's.
func (a *Acc) mergeSum(o *Acc) {
	a.addDecimal(o.micros)
	if o.more != nil {
		r, or := &a.ext().sumRest, &o.more.sumRest
		r.rescale(or.scale)
		r.num.Add(&r.num, r.t.Lsh(&or.num, r.scale-or.scale))
		r.special += or.special
	}
}

// total is the exact finite part of the sum.
func (a *Acc) total() *big.Rat {
	num := big.NewInt(a.micros)
	den := new(big.Int).Set(million)
	if a.more != nil {
		num.Add(num.Lsh(num, a.more.scale), &a.more.num)
		den.Lsh(den, a.more.scale)
	}
	return new(big.Rat).SetFrac(num, den)
}

// sumFloat is the float64 nearest the sum. Both paths round once, to
// nearest even, so a sum has the same bits whichever path it took.
func (a *Acc) sumFloat() float64 {
	if a.more == nil && a.micros > -1<<53 && a.micros < 1<<53 {
		return float64(a.micros) / 1e6
	}
	if a.more != nil && a.more.special != 0 {
		if math.IsNaN(a.more.special) {
			return math.NaN()
		}
		return a.more.special
	}
	f, _ := a.total().Float64()
	return f
}

// appendSum appends the sum's wire form: on the fast path a plain decimal
// (12345.67), on the slow path the exact p/q, or NaN, +Inf or -Inf.
func (a *Acc) appendSum(dst []byte) []byte {
	if a.more == nil {
		u := uint64(a.micros)
		if a.micros < 0 {
			dst, u = append(dst, '-'), -u
		}
		dst = strconv.AppendUint(dst, u/1e6, 10)
		if frac := u % 1e6; frac != 0 {
			var digits [7]byte
			strconv.AppendUint(digits[:0], 1e6+frac, 10) // 1 and six digits
			n := len(digits)
			for digits[n-1] == '0' {
				n--
			}
			dst = append(append(dst, '.'), digits[1:n]...)
		}
		return dst
	}
	if a.more.special != 0 {
		return strconv.AppendFloat(dst, a.more.special, 'g', -1, 64)
	}
	t := a.total()
	dst = t.Num().Append(dst, 10)
	dst = append(dst, '/')
	return t.Denom().Append(dst, 10)
}

// mergeSumCell adds the sum a partial record's cell holds, in appendSum's
// form, to a's. A plain decimal is read in place.
func (a *Acc) mergeSumCell(cell []byte) {
	if n, ok := parseMicros(cell); ok {
		a.addDecimal(n)
		return
	}
	//scoop:cold an exact p/q, NaN or ±Inf: a sum off the fast path
	a.mergeSlowSum(string(cell))
}

// mergeSlowSum adds the sum text holds, in appendSum's form, to a's.
func (a *Acc) mergeSlowSum(text string) {
	var o Acc
	o.parseSum(text)
	a.mergeSum(&o)
}

// parseSum reads appendSum's form back into a; any other text, or a p/q
// whose q does not divide 10⁶·2^k, is zero.
func (a *Acc) parseSum(text string) {
	if n, ok := parseMicros([]byte(text)); ok {
		a.micros = n
		return
	}
	m := new(more)
	r := &m.sumRest
	if f, err := strconv.ParseFloat(text, 64); err == nil && (math.IsInf(f, 0) || math.IsNaN(f)) {
		r.special = f
		a.more = m
		return
	}
	p, q, ok := strings.Cut(text, "/")
	var den big.Int
	if _, okP := r.num.SetString(p, 10); !ok || !okP {
		return
	}
	if _, okQ := den.SetString(q, 10); !okQ || den.Sign() <= 0 {
		return
	}
	// q = 2^a·5^b with b ≤ 6 divides 10⁶·2^scale for scale = max(a-6, 0).
	r.scale = max(den.TrailingZeroBits(), 6) - 6
	r.num.Mul(&r.num, r.t.Lsh(million, r.scale))
	var rem big.Int
	if r.num.QuoRem(&r.num, &den, &rem); rem.Sign() != 0 {
		return
	}
	a.more = m
}

// parseMicros reads a decimal with at most six fraction digits as an int64
// of millionths, and false for anything else or when it does not fit: the
// text is read as strconv.ParseInt reads its digits with the point taken out
// and zeros put in for the missing fraction digits.
func parseMicros(text []byte) (int64, bool) {
	whole, frac := text, text[len(text):]
	if i := bytes.IndexByte(text, '.'); i >= 0 {
		whole, frac = text[:i], text[i+1:]
	}
	if len(frac) > 6 {
		return 0, false
	}
	neg := false
	if len(whole) > 0 && (whole[0] == '-' || whole[0] == '+') {
		neg, whole = whole[0] == '-', whole[1:]
	} else if len(whole) == 0 && len(frac) > 0 && (frac[0] == '-' || frac[0] == '+') {
		neg, frac = frac[0] == '-', frac[1:]
	}
	var u uint64
	for _, part := range [2][]byte{whole, frac} {
		for _, c := range part {
			if c < '0' || c > '9' || u > (math.MaxUint64-9)/10 {
				return 0, false
			}
			u = 10*u + uint64(c-'0')
		}
	}
	for range 6 - len(frac) {
		if u > math.MaxUint64/10 {
			return 0, false
		}
		u *= 10
	}
	switch {
	case neg && u <= 1<<63:
		return int64(-u), true
	case !neg && u < 1<<63:
		return int64(u), true
	}
	return 0, false
}
