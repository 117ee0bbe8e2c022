// Package agg holds the module's one aggregation accumulator and the
// description of an aggregation simple enough to run at the object store.
//
// sql/exec folds rows and merges partial results with Acc at the compute
// side; storlet/aggfilter folds with the same Acc at the store, for the Spec
// sql/plan derives from a query. A Spec travels as JSON in two task options
// and its output is plain CSV: one record per group holding the group's key
// values, its first-row values and the cells of its accumulators, which exec
// merges as it merges a partial of its own. The package depends on sql/types
// only, so the store side does not import the SQL engine.
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
		if a.V.IsNull() {
			a.V = v
		} else if c := compareNaNHigh(v, a.V); (kind == Min && c < 0) || (kind == Max && c > 0) {
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

// appendCells appends a's state as Width cells, each encoded as AppendKey
// encodes a value.
func (a *Acc) appendCells(kind Kind, dst []byte) []byte {
	switch kind {
	case CountStar, Count:
		return AppendKey(dst, types.IntV(a.N))
	case Sum, Avg:
		dst = append(AppendKey(dst, types.IntV(a.N)), 1, 0, 0, 0, 0)
		start := len(dst)
		dst = a.appendSum(dst)
		binary.LittleEndian.PutUint32(dst[start-4:], uint32(len(dst)-start))
		return dst
	default:
		return AppendKey(dst, a.V)
	}
}

// MergeCells merges the accumulator a partial record's cells hold, as the
// agg filter wrote them (Width cells of the kind), into a, as Merge would
// merge it. Counts and sums are read from the bytes. A MIN, MAX or
// FIRST_VALUE cell is typed, as typ, only when it takes the place of the
// value so far; before that a MIN or MAX cell compares as its bytes read.
// An empty cell is NULL, and a count or sum cell that does not parse counts
// as zero. The cells are not retained.
func (a *Acc) MergeCells(kind Kind, cells [][]byte, typ types.Type) {
	switch kind {
	case CountStar, Count:
		a.N += parseCount(cells[0])
	case Sum, Avg:
		a.N += parseCount(cells[0])
		a.mergeSumCell(cells[1])
	case First:
		//scoop:cold typed once, when the group's first non-NULL value arrives
		if a.V.IsNull() && len(cells[0]) > 0 {
			a.V = types.CoerceBytes(cells[0], typ)
		}
	case Min, Max:
		cell := cells[0]
		switch {
		case len(cell) == 0:
		case a.V.T == types.String && typ == types.String:
			if c := compareText(cell, a.V.S); (kind == Min && c < 0) || (kind == Max && c > 0) {
				a.V = types.Str(string(cell)) //lint:ignore allocfree a value that takes the place of the MIN or MAX is copied out of the record
			}
		case (a.V.T == types.Float || a.V.T == types.Int) && (typ == types.Float || typ == types.Int):
			cur := a.V.F
			if a.V.T == types.Int {
				cur = float64(a.V.I)
			}
			if f, ok := csvio.FastFloat(cell); ok {
				v := types.FloatV(f) // the value types.CoerceBytes gives
				if typ == types.Int {
					v, f = types.IntV(int64(f)), float64(int64(f))
				}
				if (kind == Min && (f < cur || math.IsNaN(cur))) || (kind == Max && f > cur) {
					a.V = v
				}
				return
			}
			fallthrough
		default:
			//scoop:cold the group's first value, or a cell FastFloat does not read
			a.mergeTyped(kind, cell, typ)
		}
	}
}

// mergeTyped merges a MIN or MAX cell typed as typ.
func (a *Acc) mergeTyped(kind Kind, cell []byte, typ types.Type) {
	if v := types.CoerceBytes(cell, typ); !v.IsNull() {
		a.Add(kind, v)
	}
}

// compareNaNHigh orders v against o as Value.Compare does, but with NaN
// above every number, as PostgreSQL orders it, so that MIN and MAX over a
// NaN do not depend on where the input is cut. WHERE predicates keep
// Value.Compare, which pushdown's byte matcher agrees with.
func compareNaNHigh(v, o types.Value) int {
	if vn, on := isNaN(v), isNaN(o); (vn || on) && isNumber(v) && isNumber(o) {
		switch {
		case vn == on:
			return 0
		case vn:
			return 1
		default:
			return -1
		}
	}
	return v.Compare(o)
}

func isNaN(v types.Value) bool    { return v.T == types.Float && math.IsNaN(v.F) }
func isNumber(v types.Value) bool { return v.T == types.Float || v.T == types.Int }

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

// parseCount reads a count cell as types.CoerceBytes reads a BIGINT, NULL
// being zero; the filter's plain integers are read in place.
func parseCount(cell []byte) int64 {
	if f, ok := csvio.FastFloat(cell); ok {
		return int64(f)
	}
	//scoop:cold not the filter's rendering of a count
	return types.CoerceBytes(cell, types.Int).I
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
	switch v.T {
	case types.String:
		key = append(key, v.S...)
	case types.Int:
		key = strconv.AppendInt(key, v.I, 10)
	case types.Float:
		key = strconv.AppendFloat(key, v.F, 'g', -1, 64)
	case types.Bool:
		key = strconv.AppendBool(key, v.B)
	}
	binary.LittleEndian.PutUint32(key[start-4:], uint32(len(key)-start))
	return key
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
// at position Col of the stage's input, or, with Sub, SUBSTRING of it.
type Term struct {
	Col   int   `json:"col"`
	Sub   bool  `json:"sub,omitempty"`
	Start int64 `json:"start,omitempty"`
	Len   int64 `json:"len,omitempty"`
}

// Eval returns the term's value given the value of its column.
func (t Term) Eval(v types.Value) types.Value {
	if !t.Sub || v.IsNull() {
		return v
	}
	return types.Str(types.Substring(v.AsString(), t.Start, t.Len))
}

// value is the term over a record's fields, each typed by schema as the
// compute side's CSV scan types it, an empty or missing field being NULL. It
// holds a copy of a string field, so it may be kept.
func (t Term) value(schema *types.Schema, fields [][]byte) types.Value {
	if t.Col >= len(fields) {
		return types.NullValue()
	}
	return t.Eval(types.CoerceBytes(fields[t.Col], schema.Columns[t.Col].Type))
}

// appendKey appends t.value(schema, fields) to key. The key copies the bytes
// of a non-empty string field itself, so here the value aliases them and
// nothing is allocated.
func (t Term) appendKey(key []byte, schema *types.Schema, fields [][]byte) []byte {
	if t.Col < len(fields) && len(fields[t.Col]) > 0 && schema.Columns[t.Col].Type == types.String {
		return AppendKey(key, t.Eval(types.Str(string(fields[t.Col]))))
	}
	return AppendKey(key, t.value(schema, fields))
}

// Call is one aggregate of a Spec; CountStar has no argument.
type Call struct {
	Kind Kind `json:"kind"`
	Arg  Term `json:"arg"`
}

// Spec is an aggregation over the records of one stream: group by the Group
// terms, keep the Firsts terms of the row that opens a group, fold Aggs.
type Spec struct {
	Group  []Term `json:"-"`
	Firsts []Term `json:"firsts,omitempty"`
	Aggs   []Call `json:"aggs,omitempty"`
}

// NewTable returns an empty table for the spec's groups.
func (s *Spec) NewTable() *Table {
	kinds := make([]Kind, len(s.Aggs))
	for i, c := range s.Aggs {
		kinds[i] = c.Kind
	}
	return NewTable(len(s.Firsts), kinds)
}

// Option keys of the task that carries a Spec, as JSON.
const (
	OptGroup = "group" // the list of group terms; none aggregates the whole stream into one group
	OptAggs  = "aggs"  // the first-row terms and the aggregates
)

// Options renders the spec as task options.
func (s *Spec) Options() map[string]string {
	group, _ := json.Marshal(s.Group) // plain data: cannot fail
	aggs, _ := json.Marshal(s)
	return map[string]string{OptGroup: string(group), OptAggs: string(aggs)}
}

// ParseSpec reads a spec back from task options.
func ParseSpec(opts map[string]string) (*Spec, error) {
	s := &Spec{}
	err := json.Unmarshal([]byte(opts[OptAggs]), s)
	if err == nil {
		err = json.Unmarshal([]byte(opts[OptGroup]), &s.Group)
	}
	if err != nil {
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
	var err error
	add := func(typ types.Type) {
		cols = append(cols, types.Column{Name: "c" + strconv.Itoa(len(cols)), Type: typ})
	}
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
	if err != nil {
		return nil, err
	}
	return types.NewSchema(cols...), nil
}
