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
	"strconv"

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
type Acc struct {
	N        int64       // COUNT: rows or non-NULL values; SUM, AVG: numeric values added
	Sum      float64     // SUM, AVG
	V        types.Value // MIN, MAX, FIRST_VALUE: the value so far, NULL before any
	distinct *valueSet   // COUNT(DISTINCT), SUM(DISTINCT)
}

// valueSet holds distinct values, keyed on their rendered form, in
// first-appearance order so that a sum over them does not depend on map order.
type valueSet struct {
	seen map[string]struct{}
	vals []types.Value
}

// Add accumulates a non-NULL value.
func (a *Acc) Add(kind Kind, v types.Value) {
	switch kind {
	case CountStar, Count:
		a.N++
	case Sum, Avg:
		// Non-numeric values are ignored, like SQL casts failing to NULL.
		if f, ok := v.AsFloat(); ok {
			a.Sum += f
			a.N++
		}
	case Min, Max:
		if a.V.IsNull() {
			a.V = v
		} else if c := v.Compare(a.V); (kind == Min && c < 0) || (kind == Max && c > 0) {
			a.V = v
		}
	case First:
		// First non-NULL, matching Spark's ignoreNulls-friendly use.
		if a.V.IsNull() {
			a.V = v
		}
	case CountDistinct, SumDistinct:
		if a.distinct == nil {
			a.distinct = &valueSet{seen: make(map[string]struct{})}
		}
		key := v.AsString()
		if _, dup := a.distinct.seen[key]; !dup {
			a.distinct.seen[key] = struct{}{}
			a.distinct.vals = append(a.distinct.vals, v)
		}
	}
}

// Merge folds o, the same aggregate over the rows that follow a's, into a.
func (a *Acc) Merge(kind Kind, o *Acc) {
	switch kind {
	case CountStar, Count, Sum, Avg:
		a.N += o.N
		a.Sum += o.Sum
	case Min, Max, First:
		if !o.V.IsNull() {
			a.Add(kind, o.V)
		}
	case CountDistinct, SumDistinct:
		if o.distinct != nil {
			for _, v := range o.distinct.vals {
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
		return types.FloatV(a.Sum)
	case Avg:
		if a.N == 0 {
			return types.NullValue()
		}
		return types.FloatV(a.Sum / float64(a.N))
	case CountDistinct:
		if a.distinct == nil {
			return types.IntV(0)
		}
		return types.IntV(int64(len(a.distinct.vals)))
	case SumDistinct:
		if a.distinct == nil {
			return types.NullValue()
		}
		var sum float64
		for _, v := range a.distinct.vals {
			if f, ok := v.AsFloat(); ok {
				sum += f
			}
		}
		return types.FloatV(sum)
	default: // MIN, MAX, FIRST_VALUE
		return a.V
	}
}

// Width is the number of cells a kind's accumulator takes in a partial
// record: a count; a count and a sum; or the value so far. Cells render with
// Value.AsString, which is round-trip exact for floats, and read back with
// types.Coerce.
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

// AppendCells appends a's state as Width cells.
func (a *Acc) AppendCells(kind Kind, cells []types.Value) []types.Value {
	switch kind {
	case CountStar, Count:
		return append(cells, types.IntV(a.N))
	case Sum, Avg:
		return append(cells, types.IntV(a.N), types.FloatV(a.Sum))
	default:
		return append(cells, a.V)
	}
}

// FromCells is the accumulator AppendCells rendered as cells. A cell that
// did not parse as its type is NULL and reads as zero.
func FromCells(kind Kind, cells []types.Value) Acc {
	switch kind {
	case CountStar, Count:
		return Acc{N: cells[0].I}
	case Sum, Avg:
		return Acc{N: cells[0].I, Sum: cells[1].F}
	default:
		return Acc{V: cells[0]}
	}
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
			add(types.Float)
		default:
			add(typeOf(c.Arg))
		}
	}
	if err != nil {
		return nil, err
	}
	return types.NewSchema(cols...), nil
}
