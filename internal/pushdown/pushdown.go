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
// each tier. The default stage is the object server (data locality): the
// proxy runs object-stage filters first, then proxy-stage filters.
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

// Matcher is a conjunction of predicates bound to field positions, each
// compiled into a byte-level test: the column resolved to its index, the
// literal copied to bytes or parsed as a number once, and a LIKE pattern
// classified by shape. Evaluating a record therefore does no per-record
// setup. Filters bind a task's predicates once per invocation and call
// MatchRecord (or, on fields already split, Match) per record. The conjuncts
// are ordered by field index, so a record rejected by one is read no further
// than that conjunct's column; a conjunction is pure, so the order cannot
// change a result. An empty Matcher matches everything.
type Matcher []bound

// test names the byte-level comparison a bound conjunct runs.
type test uint8

const (
	testNever    test = iota // a numeric comparison with a literal that is not a number
	testIsNull               // IS NULL
	testNotNull              // IS NOT NULL
	testEqual                // the field equals lit (=, and LIKE without wildcards)
	testCompare              // bytes.Compare against lit, judged by cmp
	testNumeric              // the field parsed as a number against num, judged by cmp
	testPrefix               // LIKE 'head%': lit is the head
	testSuffix               // LIKE '%tail': lit is the tail
	testContains             // LIKE '%mid%': lit is the middle
	testLike                 // any other LIKE pattern, through LikeMatch
	testAny                  // IN: any of alts
)

// The bits of bound.cmp: the outcomes of a three-way comparison, field
// against literal, that satisfy the operator.
const (
	cmpLess uint8 = 1 << iota
	cmpEqual
	cmpGreater
)

// bound is one conjunct compiled for evaluation: the record satisfies it
// when its field idx passes test.
type bound struct {
	idx  int
	test test
	cmp  uint8   // testCompare, testNumeric
	lit  []byte  // testEqual, testCompare; the fixed part of a LIKE pattern
	num  float64 // testNumeric
	like string  // testLike: the whole pattern
	alts []bound // testAny: one testEqual or testNumeric per IN value
}

// compile builds the test of "field op text". op is not OpIn: Bind and
// MatchesBytes compile an IN list value by value as OpEq. The literal's
// bytes are copied into stage when it is large enough, so a caller that
// compiles per value can keep them on its stack.
func compile(op Op, numeric bool, text string, stage []byte) bound {
	switch op {
	case OpIsNull:
		return bound{test: testIsNull}
	case OpNotNull:
		return bound{test: testNotNull}
	}
	lit := stage
	if cap(lit) < len(text) {
		lit = make([]byte, len(text))
	}
	lit = lit[:len(text)]
	copy(lit, text)
	if op == OpLike { // textual even on a numeric column
		return compileLike(text, lit)
	}
	var cmp uint8
	switch op {
	case OpEq:
		cmp = cmpEqual
	case OpNe:
		cmp = cmpLess | cmpGreater
	case OpLt:
		cmp = cmpLess
	case OpLe:
		cmp = cmpLess | cmpEqual
	case OpGt:
		cmp = cmpGreater
	case OpGe:
		cmp = cmpGreater | cmpEqual
	}
	switch {
	case numeric:
		// The literal goes through the parser its fields go through, so
		// both sides of a comparison coerce alike.
		num, ok := parseFloat(lit)
		if !ok {
			return bound{test: testNever}
		}
		return bound{test: testNumeric, cmp: cmp, num: num}
	case op == OpEq:
		return bound{test: testEqual, lit: lit}
	}
	return bound{test: testCompare, cmp: cmp, lit: lit}
}

// compileLike classifies a LIKE pattern by shape. A pattern whose only
// wildcards are '%' runs at its ends is a byte compare: exact, 'head%',
// '%tail' or '%mid%'. Any '_', or a '%' between literal bytes, keeps the
// general matcher. lit holds the pattern's bytes.
func compileLike(pattern string, lit []byte) bound {
	lead, trail := 0, len(lit)
	for lead < trail && lit[lead] == '%' {
		lead++
	}
	for trail > lead && lit[trail-1] == '%' {
		trail--
	}
	core := lit[lead:trail]
	for _, c := range core {
		if c == '%' || c == '_' {
			return bound{test: testLike, like: pattern}
		}
	}
	switch {
	case lead == 0 && trail == len(lit):
		return bound{test: testEqual, lit: core}
	case lead == 0 || len(core) == 0: // 'head%'; all '%' is the empty head
		return bound{test: testPrefix, lit: core}
	case trail == len(lit):
		return bound{test: testSuffix, lit: core}
	}
	return bound{test: testContains, lit: core}
}

// Bind resolves preds against a record layout and compiles each into its
// test. index maps a column name to its field position and reports a
// negative value for an unknown column, which is an error.
func Bind(preds []Predicate, index func(column string) int) (Matcher, error) {
	m := make(Matcher, len(preds))
	for i, p := range preds {
		idx := index(p.Column)
		if idx < 0 {
			return nil, fmt.Errorf("pushdown: predicate column %q not in schema", p.Column)
		}
		if p.Op == OpIn {
			m[i] = bound{test: testAny, alts: make([]bound, len(p.Values))}
			for j, v := range p.Values {
				m[i].alts[j] = compile(OpEq, p.Numeric, v, nil)
			}
		} else {
			m[i] = compile(p.Op, p.Numeric, p.Value, nil)
		}
		m[i].idx = idx
	}
	slices.SortStableFunc(m, func(a, b bound) int { return a.idx - b.idx })
	return m, nil
}

// MatchRecord reports whether record, delimited by delim, satisfies every
// bound predicate. It finds each conjunct's field by walking the delimiters
// of the raw record, and reads the record only as far as it has to: up to the
// column of the first conjunct that fails, or of the last one. A field index
// past the end of a short record reads as an empty field, which is NULL. A
// quoted field needs unescaping, so when the walk meets one the remaining
// conjuncts go through sc, which is then Reset to the record; otherwise sc
// is not touched.
//
//scoop:hotpath
func (m Matcher) MatchRecord(record []byte, delim byte, sc *csvio.FieldScanner) bool {
	at, rest := 0, record // rest begins with field at
	for i := range m {
		b := &m[i]
		for ; at < b.idx; at++ {
			if len(rest) > 0 && rest[0] == '"' {
				return m[i:].matchScanned(record, delim, sc)
			}
			j := bytes.IndexByte(rest, delim)
			if j < 0 {
				rest = nil // past the end: this field and every later one is empty
				break
			}
			rest = rest[j+1:]
		}
		if len(rest) > 0 && rest[0] == '"' {
			return m[i:].matchScanned(record, delim, sc)
		}
		if (b.test == testPrefix || b.test == testEqual) && !bytes.HasPrefix(rest, b.lit) {
			return false // in place: the field begins where rest does
		}
		field := rest
		if j := bytes.IndexByte(field, delim); j >= 0 {
			field = field[:j]
		}
		if !b.holds(field) {
			return false
		}
	}
	return true
}

// matchScanned is MatchRecord over the field scanner, for the conjuncts left
// when the walk met a quoted field.
func (m Matcher) matchScanned(record []byte, delim byte, sc *csvio.FieldScanner) bool {
	sc.Reset(record, delim)
	for i := range m {
		raw, _ := sc.Field(m[i].idx)
		if !m[i].holds(raw) {
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
		if b.idx < len(fields) {
			raw = fields[b.idx]
		}
		if !b.holds(raw) {
			return false
		}
	}
	return true
}

// MatchesBytes evaluates the predicate against a single raw field value,
// compiling it on every call; record loops use Bind and Match. null marks a
// missing field; an empty one is NULL as well. NULL follows SQL semantics:
// only IS NULL is satisfied by it. The literal is staged in a stack buffer,
// which keeps the call allocation-free for every literal of realistic
// length.
//
//scoop:hotpath
func (p Predicate) MatchesBytes(raw []byte, null bool) bool {
	if null {
		raw = nil
	}
	var stage [64]byte
	if p.Op != OpIn {
		b := compile(p.Op, p.Numeric, p.Value, stage[:])
		return b.holds(raw)
	}
	for _, v := range p.Values {
		b := compile(OpEq, p.Numeric, v, stage[:])
		if b.holds(raw) {
			return true
		}
	}
	return false
}

// Matches is MatchesBytes for callers holding a string (the columnar
// source, which evaluates per value off the CSV record path).
func (p Predicate) Matches(raw string, null bool) bool {
	return p.MatchesBytes([]byte(raw), null)
}

// holds is the one evaluator: whether raw, the conjunct's field, passes the
// compiled test. An empty field, which is also what a record too short to
// have the field gives, is NULL: only IS NULL holds for it.
func (b *bound) holds(raw []byte) bool {
	if len(raw) == 0 {
		return b.test == testIsNull
	}
	switch b.test {
	case testNotNull:
		return true
	case testEqual:
		return bytes.Equal(raw, b.lit)
	case testPrefix:
		return bytes.HasPrefix(raw, b.lit)
	case testSuffix:
		return bytes.HasSuffix(raw, b.lit)
	case testContains:
		return contains(raw, b.lit)
	case testLike:
		return LikeMatch(raw, b.like)
	case testCompare:
		return b.cmp&outcome(bytes.Compare(raw, b.lit)) != 0
	case testNumeric:
		a, ok := parseFloat(raw)
		if !ok {
			return false // a non-numeric field never satisfies a numeric predicate
		}
		cmp := 0
		switch {
		case a < b.num:
			cmp = -1
		case a > b.num:
			cmp = 1
		}
		return b.cmp&outcome(cmp) != 0
	case testAny:
		for i := range b.alts {
			if b.alts[i].holds(raw) {
				return true
			}
		}
	}
	return false
}

// outcome maps a three-way comparison result onto its bit of bound.cmp.
func outcome(cmp int) uint8 {
	return uint8(1) << (cmp + 1)
}

// contains is bytes.Contains for a non-empty sub, built from calls on the
// allocation proof's allowlist (bytes.Index is not one): candidates found by
// IndexByte of sub's first byte, confirmed by a prefix compare.
func contains(s, sub []byte) bool {
	for len(s) >= len(sub) {
		i := bytes.IndexByte(s, sub[0])
		if i < 0 || len(s)-i < len(sub) {
			return false
		}
		if bytes.HasPrefix(s[i:], sub) {
			return true
		}
		s = s[i+1:]
	}
	return false
}

// parseFloat parses a numeric operand with SQL coercion semantics (leading/
// trailing space ignored, non-numeric text is NULL) without pulling the SQL
// engine's Value box into the predicate hot path. csvio.FastFloat handles the
// plain-decimal shapes that dominate CSV numerics allocation-free; only
// exotic syntax (exponents, hex floats, inf/NaN, >19-digit mantissas) falls
// back to strconv, and that conversion allocates (strconv.ParseFloat retains
// its argument in errors).
func parseFloat(b []byte) (float64, bool) {
	b = bytes.TrimSpace(b)
	if len(b) == 0 {
		return 0, false
	}
	if f, ok := csvio.FastFloat(b); ok {
		return f, true
	}
	//lint:ignore allocfree the string([]byte) conversion and strconv fallback only run for exotic float syntax FastFloat rejects; plain-decimal records never reach this line
	f, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return 0, false
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
