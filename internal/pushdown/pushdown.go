// Package pushdown defines the wire representation of a *pushdown task*: the
// piece of metadata the analytics delegator attaches to an object request so
// the object store executes a filter close to the data (paper §IV-A).
//
// A task names the pushdown filter to run (e.g. "csv"), the projection
// (columns to keep) and the selection (simple predicates) extracted by the
// Catalyst-style optimizer, plus free-form options. Tasks are serialized into
// a single HTTP header (base64-encoded JSON) so that the object store needs
// no API changes — exactly how Scoop piggybacks metadata on Swift GETs.
package pushdown

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"scoop/internal/csvio"
)

// HeaderName is the HTTP header carrying a serialized pushdown task on object
// GET/PUT requests.
const HeaderName = "X-Scoop-Pushdown"

// Op is a predicate comparison operator.
type Op string

// Predicate operators supported by pushdown filters.
const (
	OpEq      Op = "eq"
	OpNe      Op = "ne"
	OpLt      Op = "lt"
	OpLe      Op = "le"
	OpGt      Op = "gt"
	OpGe      Op = "ge"
	OpLike    Op = "like"
	OpIsNull  Op = "isnull"
	OpNotNull Op = "notnull"
	OpIn      Op = "in"
)

// Predicate is a simple selection of the form <column> <op> <literal>. Only
// conjunctions of such predicates are pushable; anything richer stays in the
// compute-side residual plan, mirroring Spark's Data Sources filter model.
type Predicate struct {
	// Column is the name of the column the predicate applies to.
	Column string `json:"col"`
	// Op is the comparison operator.
	Op Op `json:"op"`
	// Value is the literal operand rendered as text. For OpIn it is unused
	// and Values holds the list. Numeric predicates set Numeric.
	Value string `json:"val,omitempty"`
	// Values holds the IN list.
	Values []string `json:"vals,omitempty"`
	// Numeric marks that the comparison is numeric rather than lexicographic.
	Numeric bool `json:"num,omitempty"`
}

// String renders the predicate for diagnostics.
func (p Predicate) String() string {
	switch p.Op {
	case OpIsNull:
		return p.Column + " IS NULL"
	case OpNotNull:
		return p.Column + " IS NOT NULL"
	case OpIn:
		return p.Column + " IN (" + strings.Join(p.Values, ",") + ")"
	default:
		return fmt.Sprintf("%s %s %q", p.Column, p.Op, p.Value)
	}
}

// Task is the work delegated to the object store for one object request.
type Task struct {
	// Filter names the registered pushdown filter to execute (e.g. "csv").
	Filter string `json:"filter"`
	// Columns is the projection: names of columns to keep, in output order.
	// Empty means all columns.
	Columns []string `json:"cols,omitempty"`
	// Predicates is the selection: rows must satisfy ALL predicates.
	Predicates []Predicate `json:"preds,omitempty"`
	// Schema declares column names and types ("name type, ..."), needed by
	// filters that operate on raw data without self-describing structure.
	Schema string `json:"schema,omitempty"`
	// Options carries filter-specific parameters (e.g. CSV delimiter).
	Options map[string]string `json:"opts,omitempty"`
	// Stage requests where the filter runs: "object" (default; at the object
	// server, exploiting data locality) or "proxy" (paper §V: staging
	// execution control).
	Stage string `json:"stage,omitempty"`
}

// Stages.
const (
	StageObject = "object"
	StageProxy  = "proxy"
)

// SplitByStage partitions a chain by execution tier, preserving order within
// each tier. The default stage is the object server (data locality). Both the
// proxy and the connector's compute-side fallback use this rule, so a chain
// degraded to local execution runs its stages in the exact order the store
// would have: object-stage filters first, then proxy-stage filters.
func SplitByStage(tasks []*Task) (objectStage, proxyStage []*Task) {
	for _, t := range tasks {
		if t.Stage == StageProxy {
			proxyStage = append(proxyStage, t)
		} else {
			objectStage = append(objectStage, t)
		}
	}
	return objectStage, proxyStage
}

// Encode serializes the task for transport in an HTTP header.
func (t *Task) Encode() (string, error) {
	raw, err := json.Marshal(t)
	if err != nil {
		return "", fmt.Errorf("pushdown: encode: %w", err)
	}
	return base64.StdEncoding.EncodeToString(raw), nil
}

// EncodeChain serializes a pipeline of tasks for transport in one header.
// Tasks run in order: the first filter consumes the object stream, each
// subsequent filter consumes the previous filter's output (paper §IV-B:
// "Scoop is able to execute several pushdown filters on a single request").
func EncodeChain(tasks []*Task) (string, error) {
	parts := make([]string, len(tasks))
	for i, t := range tasks {
		enc, err := t.Encode()
		if err != nil {
			return "", err
		}
		parts[i] = enc
	}
	return strings.Join(parts, ";"), nil
}

// DecodeChain parses a header value holding one or more tasks.
func DecodeChain(s string) ([]*Task, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("pushdown: empty task chain")
	}
	parts := strings.Split(s, ";")
	out := make([]*Task, len(parts))
	for i, p := range parts {
		t, err := Decode(p)
		if err != nil {
			return nil, err
		}
		out[i] = t
	}
	return out, nil
}

// Decode parses a task previously produced by Encode.
func Decode(s string) (*Task, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("pushdown: decode: %w", err)
	}
	var t Task
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("pushdown: decode: %w", err)
	}
	if t.Filter == "" {
		return nil, fmt.Errorf("pushdown: task missing filter name")
	}
	return &t, nil
}

// Validate checks internal consistency of the task.
func (t *Task) Validate() error {
	if t.Filter == "" {
		return fmt.Errorf("pushdown: empty filter name")
	}
	if t.Stage != "" && t.Stage != StageObject && t.Stage != StageProxy {
		return fmt.Errorf("pushdown: bad stage %q", t.Stage)
	}
	for _, p := range t.Predicates {
		switch p.Op {
		case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpLike, OpIsNull, OpNotNull, OpIn:
		default:
			return fmt.Errorf("pushdown: bad predicate op %q", p.Op)
		}
		if p.Column == "" {
			return fmt.Errorf("pushdown: predicate missing column")
		}
	}
	return nil
}

// Matcher is a conjunction of predicates bound to field positions: each
// column resolved to its index and each literal parsed once, so evaluating a
// record does no per-record setup. Filters bind a task's predicates once per
// invocation and call MatchRecord (or, on fields already split, Match) per
// record. The conjuncts are ordered by field index, so a record rejected by
// one is split no further than that conjunct's column; a conjunction is pure,
// so the order cannot change a result. An empty Matcher matches everything.
type Matcher []bound

// bound is one predicate resolved for evaluation: the record satisfies it
// when the field at idx stands in relation op to any of lits. OpIn is bound
// as OpEq over its value list; every other operator has exactly one literal.
type bound struct {
	idx     int
	op      Op
	numeric bool
	lits    []literal
}

// literal is a predicate operand: its text (lexical comparison, LIKE
// pattern) and, for numeric predicates, its parsed value.
type literal struct {
	text  string
	num   float64
	isNum bool // false on a numeric predicate: the literal matches nothing
}

// newLiteral parses a numeric literal with the parser its fields go through,
// so both sides of a comparison coerce alike. The text arrives as a string
// (the wire form) and is staged in a stack buffer, which keeps the per-value
// MatchesBytes entry allocation-free for every literal of realistic length.
func newLiteral(text string, numeric bool) literal {
	l := literal{text: text}
	if numeric {
		var stack [32]byte
		buf := stack[:]
		if cap(buf) < len(text) {
			buf = make([]byte, len(text))
		}
		l.num, l.isNum = parseFloat(buf[:copy(buf, text)])
	}
	return l
}

// Bind resolves preds against a record layout. index maps a column name to
// its field position and reports a negative value for an unknown column,
// which is an error.
func Bind(preds []Predicate, index func(column string) int) (Matcher, error) {
	m := make(Matcher, len(preds))
	for i, p := range preds {
		idx := index(p.Column)
		if idx < 0 {
			return nil, fmt.Errorf("pushdown: predicate column %q not in schema", p.Column)
		}
		op, values := p.Op, []string{p.Value}
		if op == OpIn {
			op, values = OpEq, p.Values
		}
		m[i] = bound{idx: idx, op: op, numeric: p.Numeric, lits: make([]literal, len(values))}
		for j, v := range values {
			m[i].lits[j] = newLiteral(v, p.Numeric)
		}
	}
	slices.SortStableFunc(m, func(a, b bound) int { return a.idx - b.idx })
	return m, nil
}

// MatchRecord reports whether the record sc was last Reset to satisfies every
// bound predicate. It splits the record only as far as it has to: up to the
// column of the first conjunct that fails, or of the last one. A field index
// past the end of a short record reads as NULL.
//
//scoop:hotpath
func (m Matcher) MatchRecord(sc *csvio.FieldScanner) bool {
	for i := range m {
		b := &m[i]
		raw, ok := sc.Field(b.idx)
		if !match(b.op, b.numeric, b.lits, raw, !ok) {
			return false
		}
	}
	return true
}

// Match is MatchRecord over a record already split into fields.
//
//scoop:hotpath
func (m Matcher) Match(fields [][]byte) bool {
	for i := range m {
		b := &m[i]
		var raw []byte
		null := b.idx >= len(fields)
		if !null {
			raw = fields[b.idx]
		}
		if !match(b.op, b.numeric, b.lits, raw, null) {
			return false
		}
	}
	return true
}

// MatchesBytes evaluates the predicate against a single raw field value,
// parsing the literal on every call; record loops use Bind and Match. NULL
// follows SQL semantics: comparisons against it are not satisfied (except IS
// NULL), and an empty field is NULL to IS NULL / IS NOT NULL.
//
//scoop:hotpath
func (p Predicate) MatchesBytes(raw []byte, null bool) bool {
	if p.Op == OpIn {
		for _, v := range p.Values {
			lit := [1]literal{newLiteral(v, p.Numeric)}
			if match(OpEq, p.Numeric, lit[:], raw, null) {
				return true
			}
		}
		return false
	}
	lit := [1]literal{newLiteral(p.Value, p.Numeric)}
	return match(p.Op, p.Numeric, lit[:], raw, null)
}

// Matches is MatchesBytes for callers holding a string (document and
// columnar sources, which evaluate per value off the CSV record path).
func (p Predicate) Matches(raw string, null bool) bool {
	return p.MatchesBytes([]byte(raw), null)
}

// match is the one comparison: raw <op> any of lits.
func match(op Op, numeric bool, lits []literal, raw []byte, null bool) bool {
	switch op {
	case OpIsNull:
		return null || len(raw) == 0
	case OpNotNull:
		return !null && len(raw) != 0
	}
	if null {
		return false
	}
	var a float64
	if numeric && op != OpLike {
		var ok bool
		if a, ok = parseFloat(raw); !ok {
			return false // non-numeric field never satisfies a numeric predicate
		}
	}
	for i := range lits {
		l := &lits[i]
		var cmp int
		switch {
		case op == OpLike:
			if LikeMatch(raw, l.text) {
				return true
			}
			continue
		case numeric:
			if !l.isNum {
				continue
			}
			switch {
			case a < l.num:
				cmp = -1
			case a > l.num:
				cmp = 1
			}
		default:
			cmp = compareBytesString(raw, l.text)
		}
		if holds(op, cmp) {
			return true
		}
	}
	return false
}

// holds maps a three-way comparison result onto the operator.
func holds(op Op, cmp int) bool {
	switch op {
	case OpEq:
		return cmp == 0
	case OpNe:
		return cmp != 0
	case OpLt:
		return cmp < 0
	case OpLe:
		return cmp <= 0
	case OpGt:
		return cmp > 0
	case OpGe:
		return cmp >= 0
	}
	return false
}

// compareBytesString is bytes.Compare with a string on the right, avoiding a
// conversion allocation.
func compareBytesString(b []byte, s string) int {
	n := min(len(b), len(s))
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// parseFloat parses a numeric operand with SQL coercion semantics (leading/
// trailing space ignored, non-numeric text is NULL) without pulling the SQL
// engine's Value box into the predicate hot path. fastFloat handles the
// plain-decimal shapes that dominate CSV numerics allocation-free; only
// exotic syntax (exponents, hex floats, inf/NaN, >19-digit mantissas) falls
// back to strconv, and that conversion allocates (strconv.ParseFloat retains
// its argument in errors).
func parseFloat(b []byte) (float64, bool) {
	b = bytes.TrimSpace(b)
	if len(b) == 0 {
		return 0, false
	}
	if f, ok := fastFloat(b); ok {
		return f, true
	}
	//lint:ignore allocfree the string([]byte) conversion and strconv fallback only run for exotic float syntax fastFloat rejects; plain-decimal records never reach this line
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, false
	}
	return f, true
}

// pow10 holds the exactly-representable powers of ten (10^22 is the largest).
var pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// fastFloat parses [+-]?digits[.digits] when the mantissa fits in 53 bits
// and the fractional exponent stays within the exact pow10 table — the
// regime where one float division yields the correctly-rounded result, which
// is also strconv.ParseFloat's own exact fast path, so results are
// bit-identical. Anything else reports ok=false for the caller to fall back.
func fastFloat(b []byte) (float64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	i, neg := 0, false
	if b[0] == '+' || b[0] == '-' {
		neg = b[0] == '-'
		i++
	}
	var mant uint64
	frac, sawDot, sawDigit := 0, false, false
	for ; i < len(b); i++ {
		c := b[i]
		if c == '.' {
			if sawDot {
				return 0, false
			}
			sawDot = true
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		sawDigit = true
		if mant >= 1<<53/10+1 {
			return 0, false // mantissa may leave the exact-representation range
		}
		mant = mant*10 + uint64(c-'0')
		if sawDot {
			frac++
		}
	}
	if !sawDigit || mant >= 1<<53 || frac >= len(pow10) {
		return 0, false
	}
	f := float64(mant) / pow10[frac]
	if neg {
		f = -f
	}
	return f, true
}

// LikeMatch evaluates a SQL LIKE pattern over s: '%' matches any run
// (including empty), '_' exactly one byte, and matching is case-sensitive, as
// in Spark SQL. It is the module's one LIKE matcher: the storage-side filters
// call it through bound literals, the SQL engine's residual predicates
// directly. The package does not depend on the SQL engine (the paper's
// CSVStorlet is a standalone artifact deployed into the store), so the engine
// depends on it instead.
func LikeMatch(s []byte, p string) bool {
	// Iterative matcher with backtracking on '%' (the classic wildcard-match
	// shape; no regexp, no allocation).
	var si, pi int
	star, sBack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%': // before the literal case: a '%' in the subject is no match for it
			if allPercent(p[pi:]) {
				return true // a '%' tail matches whatever is left: 'head%' costs a compare of the head
			}
			star = pi
			sBack = si
			pi++
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case star >= 0:
			pi = star + 1
			sBack++
			si = sBack
		default:
			return false
		}
	}
	return allPercent(p[pi:])
}

// allPercent reports whether p is all '%' (true for the empty tail).
func allPercent(p string) bool {
	for i := 0; i < len(p); i++ {
		if p[i] != '%' {
			return false
		}
	}
	return true
}
