// Package agg holds the module's one aggregation accumulator and the
// description of an aggregation simple enough to run at the object store.
//
// sql/exec folds rows and merges partial results with Acc at the compute
// side; storlet/csvfilter folds the raw records it keeps with the same Acc at
// the store, for the Spec sql/plan derives from a query. A Spec travels as
// JSON in one option of the csv task and its output is plain CSV: one record
// per group holding the group's key values, its first-row values and the
// cells of its accumulators, which exec merges as it merges a partial of its
// own. The package depends on sql/types and csvio only, so the store side
// does not import the SQL engine.
package agg

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"scoop/internal/csvio"
	"scoop/internal/sql/types"
)

// Kind is an aggregate function.
type Kind uint8

// The aggregate functions. The DISTINCT forms merge only as whole value
// sets, so they have no cells and never run at the store. The values travel
// in task options: append, never reorder.
const (
	CountStar Kind = iota
	Count
	Sum
	Avg
	Min
	Max
	First
	CountDistinct
	SumDistinct
)

// Acc is the state of one aggregate over one group. Which fields are in use
// depends on the aggregate's kind, which the plan holds once for all groups.
// SUM and AVG add exactly (sum.go), so their state depends only on the
// multiset of values added, not on their order or on how they are cut into
// partials.
type Acc struct {
	N      int64       // COUNT: rows or non-NULL values; SUM, AVG: numeric values added
	micros int64       // SUM, AVG: the exact sum's fast path, in millionths
	V      types.Value // MIN, MAX, FIRST_VALUE: the value so far, NULL before any
	more   *more       // state that does not fit inline; nil until a kind needs it
}

// more is the state of an Acc that does not fit inline: the slow path of an
// exact sum (SUM, AVG) or the value set (COUNT(DISTINCT), SUM(DISTINCT)). No
// kind needs both; sharing one pointer keeps Acc, of which a group table
// holds one per aggregate per group, at its size before exact sums.
type more struct {
	sumRest
	seen     map[string]struct{} // DISTINCT: the values' renderings
	distinct []types.Value       // DISTINCT: the values, in first-appearance order
}

// ext returns a's out-of-line state, creating it.
func (a *Acc) ext() *more {
	if a.more == nil {
		a.more = new(more)
	}
	return a.more
}

// Add accumulates a non-NULL value.
func (a *Acc) Add(kind Kind, v types.Value) {
	switch kind {
	case CountStar, Count:
		a.N++
	case Sum, Avg:
		// Non-numeric values are ignored, like SQL casts failing to NULL.
		if f, ok := v.AsFloat(); ok {
			a.addSum(f)
			a.N++
		}
	case Min, Max:
		if a.V.IsNull() || wins(kind, compareNaNHigh(v, a.V)) {
			a.V = v
		}
	case First:
		// First non-NULL, matching Spark's ignoreNulls-friendly use.
		if a.V.IsNull() {
			a.V = v
		}
	case CountDistinct, SumDistinct:
		m := a.ext()
		if m.seen == nil {
			m.seen = make(map[string]struct{})
		}
		key := v.AsString()
		if _, dup := m.seen[key]; !dup {
			m.seen[key] = struct{}{}
			m.distinct = append(m.distinct, v)
		}
	}
}

// Merge folds o, the same aggregate over the rows that follow a's, into a.
func (a *Acc) Merge(kind Kind, o *Acc) {
	switch kind {
	case CountStar, Count:
		a.N += o.N
	case Sum, Avg:
		a.N += o.N
		a.mergeSum(o)
	case Min, Max, First:
		if !o.V.IsNull() {
			a.Add(kind, o.V)
		}
	case CountDistinct, SumDistinct:
		if o.more != nil {
			for _, v := range o.more.distinct {
				a.Add(kind, v)
			}
		}
	}
}

// Value returns the aggregate's result.
func (a *Acc) Value(kind Kind) types.Value {
	switch kind {
	case CountStar, Count:
		return types.IntV(a.N)
	case Sum:
		if a.N == 0 {
			return types.NullValue()
		}
		return types.FloatV(a.sumFloat())
	case Avg:
		if a.N == 0 {
			return types.NullValue()
		}
		return types.FloatV(a.sumFloat() / float64(a.N))
	case CountDistinct:
		if a.more == nil {
			return types.IntV(0)
		}
		return types.IntV(int64(len(a.more.distinct)))
	case SumDistinct:
		if a.more == nil {
			return types.NullValue()
		}
		var s Acc
		for _, v := range a.more.distinct {
			if f, ok := v.AsFloat(); ok {
				s.addSum(f)
			}
		}
		return types.FloatV(s.sumFloat())
	default: // MIN, MAX, FIRST_VALUE
		return a.V
	}
}

// Width is the number of cells a kind's accumulator takes in a partial
// record: a count; a count and a sum; or the value so far. Cells render as
// AppendKey renders values, which is Value.AsString and round-trip exact for
// floats. The sum cell is the exact sum as text (see Acc.appendSum), which
// never passes through a float64.
func (k Kind) Width() int {
	switch k {
	case Sum, Avg:
		return 2
	case CountStar, Count, Min, Max, First:
		return 1
	default:
		return 0
	}
}

// appendCells appends a's state to dst as Width cells, each rendered as
// AppendKey renders a value, and the end of each in dst to ends.
func (a *Acc) appendCells(kind Kind, dst []byte, ends []int) ([]byte, []int) {
	switch kind {
	case CountStar, Count:
		dst = strconv.AppendInt(dst, a.N, 10)
	case Sum, Avg:
		dst = strconv.AppendInt(dst, a.N, 10)
		ends = append(ends, len(dst))
		dst = a.appendSum(dst)
	default:
		dst = appendText(dst, a.V)
	}
	return dst, append(ends, len(dst))
}

// MergeCells merges the accumulator a partial record's cells hold, as the
// store wrote them (Width cells of the kind), into a, as Merge would
// merge it. Counts and sums are read from the bytes. A MIN, MAX or
// FIRST_VALUE cell is typed, as typ, only when it takes the place of the
// value so far; before that a MIN or MAX cell compares as its bytes read.
// An empty cell is NULL, and a count or sum cell that does not parse counts
// as zero. The cells are not retained.
func (a *Acc) MergeCells(kind Kind, cells [][]byte, typ types.Type) {
	switch kind {
	case CountStar, Count:
		a.N += types.Number(cells[0], types.Int).I
	case Sum, Avg:
		a.N += types.Number(cells[0], types.Int).I
		a.mergeSumCell(cells[1])
	case First:
		//scoop:cold typed once, when the group's first non-NULL value arrives
		if a.V.IsNull() && len(cells[0]) > 0 {
			a.V = types.CoerceBytes(cells[0], typ)
		}
	case Min, Max:
		if len(cells[0]) > 0 {
			a.mergeMinMax(kind, cells[0], typ)
		}
	}
}

// mergeMinMax merges text, a MIN or MAX cell or argument that is not empty,
// of type typ, into a, as a.Add(kind, v) adds its value v when that is not
// NULL. A string is copied only when it takes the place of the value so far,
// and a number is read in place.
func (a *Acc) mergeMinMax(kind Kind, text []byte, typ types.Type) {
	if typ == types.String {
		if a.V.IsNull() || wins(kind, compareText(text, a.V.S)) {
			a.V = types.Str(string(text)) //lint:ignore allocfree a value that takes the place of the MIN or MAX is copied out of the record
		}
		return
	}
	if v := types.Number(text, typ); !v.IsNull() && (a.V.IsNull() || wins(kind, compareNaNHigh(v, a.V))) {
		a.V = v
	}
}

// wins reports whether a value that compares c to a MIN's or MAX's value so
// far takes its place.
func wins(kind Kind, c int) bool { return (kind == Min && c < 0) || (kind == Max && c > 0) }

// compareNaNHigh orders v against o as Value.Compare does, but with NaN
// above every number, as PostgreSQL orders it, so that MIN and MAX over a
// NaN do not depend on where the input is cut. WHERE predicates keep
// Value.Compare, which pushdown's byte matcher agrees with.
func compareNaNHigh(v, o types.Value) int {
	if !isNumber(v) || !isNumber(o) {
		//scoop:cold a BOOLEAN, or a value that is not a number
		return v.Compare(o)
	}
	x, y := number(v), number(o)
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	case math.IsNaN(x) == math.IsNaN(y):
		return 0
	case math.IsNaN(x):
		return 1
	}
	return -1
}

func isNumber(v types.Value) bool { return v.T == types.Float || v.T == types.Int }

// number is the float of an INT or DOUBLE value, as Value.AsFloat reads it.
func number(v types.Value) float64 {
	if v.T == types.Int {
		return float64(v.I)
	}
	return v.F
}

// compareText orders string(b) against s, as strings.Compare does but by
// sign only, without the conversion.
func compareText(b []byte, s string) int {
	for i := range min(len(b), len(s)) {
		if b[i] != s[i] {
			return int(b[i]) - int(s[i])
		}
	}
	return len(b) - len(s)
}

// AppendKey appends v to a group or DISTINCT key: NULL as one tag byte, any
// other value as a tag, the length of its rendering and the rendering, so no
// two value lists share a key whatever bytes the values hold.
func AppendKey(key []byte, v types.Value) []byte {
	if v.IsNull() {
		return append(key, 0)
	}
	key = append(key, 1, 0, 0, 0, 0)
	start := len(key)
	key = appendText(key, v)
	binary.LittleEndian.PutUint32(key[start-4:], uint32(len(key)-start))
	return key
}

// appendText appends v's rendering, which is what Value.AsString gives and
// nothing for NULL.
func appendText(dst []byte, v types.Value) []byte {
	switch v.T {
	case types.String:
		return append(dst, v.S...)
	case types.Int:
		return strconv.AppendInt(dst, v.I, 10)
	case types.Float:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case types.Bool:
		return strconv.AppendBool(dst, v.B)
	}
	return dst
}

// CutKey splits a key AppendKey built into the rendering of its first value,
// which is what Value.AsString gives and empty for NULL, and the rest.
func CutKey(key []byte) (text, rest []byte) {
	if key[0] == 0 {
		return nil, key[1:]
	}
	end := 5 + binary.LittleEndian.Uint32(key[1:])
	return key[5:end], key[end:]
}

// Term is a value the store computes from one field of a record: the field
// at position Col of the aggregation's input, or, with Sub, SUBSTRING of it.
type Term struct {
	Col   int   `json:"col"`
	Sub   bool  `json:"sub,omitempty"`
	Start int64 `json:"start,omitempty"`
	Len   int64 `json:"len,omitempty"`
}

// typ is the type of the term's values over records of schema.
func (t Term) typ(schema *types.Schema) types.Type {
	if t.Sub {
		return types.String
	}
	return schema.Columns[t.Col].Type
}

// text is what the term reads of the record sc holds: the field at Col, or
// the SUBSTRING of it, and false when that field is empty or missing, which
// is NULL. A SUBSTRING of a field that is not NULL is not NULL either, empty
// or not. The text aliases the record or sc's scratch.
func (t Term) text(sc *csvio.FieldScanner) ([]byte, bool) {
	f, ok := sc.Field(t.Col)
	if !ok || len(f) == 0 {
		return nil, false
	}
	if t.Sub {
		lo, hi := types.SubstringRange(int64(len(f)), t.Start, t.Len)
		f = f[lo:hi]
	}
	return f, true
}

// value types text, what the term read of a record of schema, as the
// compute side's CSV scan types it. It holds a copy of a string, so it may
// be kept.
func (t Term) value(schema *types.Schema, text []byte) types.Value {
	if t.Sub {
		return types.Str(string(text))
	}
	return types.CoerceBytes(text, schema.Columns[t.Col].Type)
}

// Call is one aggregate of a Spec; CountStar has no argument.
type Call struct {
	Kind Kind `json:"kind"`
	Arg  Term `json:"arg"`
}

// fold adds the call's argument over the record sc holds, a record of
// schema, to a, as a.Add(c.Kind, v) adds the argument's value v when that is
// not NULL. A number is read in place with FastFloat where it can be, and a
// string is copied only when it becomes the MIN or MAX.
func (c *Call) fold(a *Acc, schema *types.Schema, sc *csvio.FieldScanner) {
	if c.Kind == CountStar {
		a.N++
		return
	}
	if c.Kind == First && !a.V.IsNull() {
		return
	}
	text, ok := c.Arg.text(sc)
	if !ok {
		return
	}
	typ := c.Arg.typ(schema)
	switch c.Kind {
	case Count:
		if typ == types.String || !types.Number(text, typ).IsNull() {
			a.N++
		}
	case Sum, Avg:
		// FastFloat reads what Value.AsFloat reads of a number or a string,
		// where it reads anything; an INT takes the whole part, as
		// types.CoerceBytes types it.
		if f, ok := csvio.FastFloat(text); ok && typ != types.Bool {
			if typ == types.Int {
				f = float64(int64(f))
			}
			a.addSum(f)
			a.N++
			return
		}
		//scoop:cold text FastFloat does not read is typed as the compute side types it
		if v := c.Arg.value(schema, text); !v.IsNull() {
			a.Add(c.Kind, v)
		}
	case Min, Max:
		a.mergeMinMax(c.Kind, text, typ)
	case First:
		//scoop:cold the group's first value that is not NULL, typed once
		a.V = c.Arg.value(schema, text)
	}
}

// Spec is an aggregation over the records of one stream: group by the Group
// terms, keep the Firsts terms of the row that opens a group, fold Aggs.
type Spec struct {
	Group  []Term `json:"group,omitempty"`
	Firsts []Term `json:"firsts,omitempty"`
	Aggs   []Call `json:"aggs,omitempty"`
}

// Over rebinds s, in place, to records whose field cols[c] is column c of
// the stream s read: each term's column c becomes cols[c]. s must fit that
// stream (Check).
func (s *Spec) Over(cols []int) {
	for i := range s.Group {
		s.Group[i].Col = cols[s.Group[i].Col]
	}
	for i := range s.Firsts {
		s.Firsts[i].Col = cols[s.Firsts[i].Col]
	}
	for i := range s.Aggs {
		if s.Aggs[i].Kind != CountStar {
			s.Aggs[i].Arg.Col = cols[s.Aggs[i].Arg.Col]
		}
	}
}

// ResetTable empties t and shapes it for the spec's groups, keeping the
// memory of t's earlier use where it fits them: a pool of tables serves
// aggregations of any spec.
func (s *Spec) ResetTable(t *Table) {
	t.Reset()
	t.kinds = t.kinds[:0]
	for _, c := range s.Aggs {
		t.kinds = append(t.kinds, c.Kind)
	}
	if t.firsts.n != len(s.Firsts) {
		t.firsts = pages[types.Value]{n: len(s.Firsts)}
	}
	if t.accs.n != len(s.Aggs) {
		t.accs = pages[Acc]{n: len(s.Aggs)}
	}
}

// OptFold is the key of the task option that carries a Spec, as JSON. No
// group terms aggregate the whole stream into one group.
const OptFold = "fold"

// Options renders the spec as task options.
func (s *Spec) Options() map[string]string {
	b, _ := json.Marshal(s) // plain data: cannot fail
	return map[string]string{OptFold: string(b)}
}

// ParseSpec reads a spec back from task options.
func ParseSpec(opts map[string]string) (*Spec, error) {
	s := &Spec{}
	if err := json.Unmarshal([]byte(opts[OptFold]), s); err != nil {
		return nil, fmt.Errorf("agg: bad spec: %w", err)
	}
	for _, c := range s.Aggs {
		if c.Kind.Width() == 0 {
			return nil, fmt.Errorf("agg: aggregate kind %d does not run at the store", c.Kind)
		}
	}
	if len(s.Group)+len(s.Aggs) == 0 {
		return nil, fmt.Errorf("agg: neither group terms nor aggregates")
	}
	return s, nil
}

// Record is the schema of the records the aggregation emits over a stream of
// schema in: the group terms, the first-row terms, then each accumulator's
// cells. It fails when a term does not fit in.
func (s *Spec) Record(in *types.Schema) (*types.Schema, error) {
	var cols []types.Column
	err := s.cells(in, func(typ types.Type) {
		cols = append(cols, types.Column{Name: "c" + strconv.Itoa(len(cols)), Type: typ})
	})
	if err != nil {
		return nil, err
	}
	return types.NewSchema(cols...), nil
}

// Check fails when a term of s does not fit a stream of schema in, as
// Record does, without building the record's schema.
func (s *Spec) Check(in *types.Schema) error {
	return s.cells(in, func(types.Type) {})
}

// cells calls add with the type of each cell of the records s emits over a
// stream of schema in, in order, and fails when a term does not fit in.
func (s *Spec) cells(in *types.Schema, add func(types.Type)) error {
	var err error
	typeOf := func(t Term) types.Type {
		switch {
		case t.Col < 0 || t.Col >= in.Len():
			err = fmt.Errorf("agg: term %+v outside the %d input columns", t, in.Len())
		case t.Sub && in.Columns[t.Col].Type != types.String:
			err = fmt.Errorf("agg: term %+v takes a substring of a %s column", t, in.Columns[t.Col].Type)
		case t.Sub:
			return types.String
		default:
			return in.Columns[t.Col].Type
		}
		return types.Null
	}
	for _, t := range s.Group {
		add(typeOf(t))
	}
	for _, t := range s.Firsts {
		add(typeOf(t))
	}
	for _, c := range s.Aggs {
		switch c.Kind {
		case CountStar:
			add(types.Int)
		case Count:
			typeOf(c.Arg)
			add(types.Int)
		case Sum, Avg:
			typeOf(c.Arg)
			add(types.Int)
			add(types.String)
		default:
			add(typeOf(c.Arg))
		}
	}
	return err
}
