// Package types defines the value, row and schema model shared by the SQL
// engine, the data sources and the pushdown filters.
//
// The model is deliberately small: the GridPocket workloads the paper targets
// (Table I) need strings, 64-bit integers, 64-bit floats and NULL. Values are
// represented by a compact tagged struct rather than interface{} so that hot
// loops (filter evaluation inside the storlet engine) do not allocate.
package types

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"scoop/internal/csvio"
)

// Type identifies the runtime type of a Value.
type Type uint8

// Supported column types.
const (
	Null Type = iota
	String
	Int
	Float
	Bool
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case Null:
		return "NULL"
	case String:
		return "STRING"
	case Int:
		return "BIGINT"
	case Float:
		return "DOUBLE"
	case Bool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// ParseType maps a schema declaration name to a Type. It accepts the
// spellings used by the CSV data source schema strings.
func ParseType(s string) (Type, error) {
	name := strings.TrimSpace(s)
	is := func(names ...string) bool {
		for _, n := range names {
			if strings.EqualFold(name, n) {
				return true
			}
		}
		return false
	}
	switch {
	case is("STRING", "TEXT", "VARCHAR"):
		return String, nil
	case is("INT", "INTEGER", "BIGINT", "LONG"):
		return Int, nil
	case is("FLOAT", "DOUBLE", "REAL", "DECIMAL"):
		return Float, nil
	case is("BOOL", "BOOLEAN"):
		return Bool, nil
	case is("NULL"):
		return Null, nil
	default:
		return Null, fmt.Errorf("types: unknown type %q", s)
	}
}

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	T Type
	S string
	I int64
	F float64
	B bool
}

// Convenience constructors.

// NullValue returns the SQL NULL value.
func NullValue() Value { return Value{} }

// Str returns a STRING value.
func Str(s string) Value { return Value{T: String, S: s} }

// IntV returns a BIGINT value.
func IntV(i int64) Value { return Value{T: Int, I: i} }

// FloatV returns a DOUBLE value.
func FloatV(f float64) Value { return Value{T: Float, F: f} }

// BoolV returns a BOOLEAN value.
func BoolV(b bool) Value { return Value{T: Bool, B: b} }

// IsNull reports whether v is the SQL NULL.
func (v Value) IsNull() bool { return v.T == Null }

// AsFloat converts numeric values to float64. Strings are parsed; failure
// yields NULL semantics via the ok result.
func (v Value) AsFloat() (float64, bool) {
	switch v.T {
	case Int:
		return float64(v.I), true
	case Float:
		return v.F, true
	case String:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		return f, err == nil
	case Bool:
		if v.B {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// AsInt converts numeric values to int64.
func (v Value) AsInt() (int64, bool) {
	switch v.T {
	case Int:
		return v.I, true
	case Float:
		return int64(v.F), true
	case String:
		i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
		if err == nil {
			return i, true
		}
		f, ferr := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
		if ferr == nil {
			return int64(f), true
		}
		return 0, false
	case Bool:
		if v.B {
			return 1, true
		}
		return 0, true
	default:
		return 0, false
	}
}

// AsString renders the value the way the CSV writer would.
func (v Value) AsString() string {
	switch v.T {
	case Null:
		return ""
	case String:
		return v.S
	case Int:
		return strconv.FormatInt(v.I, 10)
	case Float:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case Bool:
		if v.B {
			return "true"
		}
		return "false"
	default:
		return ""
	}
}

// AsBool interprets the value as a boolean truth value.
func (v Value) AsBool() (bool, bool) {
	switch v.T {
	case Bool:
		return v.B, true
	case Int:
		return v.I != 0, true
	case Float:
		return v.F != 0, true
	case String:
		b, err := strconv.ParseBool(strings.ToLower(strings.TrimSpace(v.S)))
		return b, err == nil
	default:
		return false, false
	}
}

// Compare orders two values: -1 if v < o, 0 if equal, +1 if v > o.
// NULL compares less than everything and equal to NULL (total order used by
// ORDER BY; predicate evaluation handles NULL separately via three-valued
// logic in the expr package). Numeric comparison is used when both sides are
// numeric or parseable as numeric; otherwise string comparison applies.
func (v Value) Compare(o Value) int {
	if v.IsNull() || o.IsNull() {
		switch {
		case v.IsNull() && o.IsNull():
			return 0
		case v.IsNull():
			return -1
		default:
			return 1
		}
	}
	if isNumeric(v) && isNumeric(o) {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	// Mixed numeric/string: try to coerce the string side.
	if isNumeric(v) != isNumeric(o) {
		if a, aok := v.AsFloat(); aok {
			if b, bok := o.AsFloat(); bok {
				switch {
				case a < b:
					return -1
				case a > b:
					return 1
				default:
					return 0
				}
			}
		}
	}
	return strings.Compare(v.AsString(), o.AsString())
}

// Equal reports value equality under Compare semantics.
func (v Value) Equal(o Value) bool { return v.Compare(o) == 0 }

func isNumeric(v Value) bool { return v.T == Int || v.T == Float || v.T == Bool }

// Row is a tuple of values positionally matching a Schema.
type Row []Value

// Clone returns a deep copy of the row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Column describes one schema column.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of named, typed columns.
type Schema struct {
	Columns []Column
	byName  map[string]int
}

// NewSchema builds a schema from columns. Column names are matched
// case-insensitively on lookup, mirroring SQL identifier semantics.
func NewSchema(cols ...Column) *Schema {
	s := &Schema{Columns: cols, byName: make(map[string]int, len(cols))}
	for i, c := range cols {
		s.byName[strings.ToLower(c.Name)] = i
	}
	return s
}

// ParseSchema parses "name type, name type, ..." declarations, e.g.
// "vid string, index double, date string".
func ParseSchema(decl string) (*Schema, error) {
	cols := make([]Column, 0, strings.Count(decl, ",")+1)
	for rest := decl; rest != ""; {
		var p string
		p, rest, _ = strings.Cut(rest, ",")
		name, more := cutWord(p)
		if name == "" {
			continue
		}
		typ, more := cutWord(more)
		if typ == "" || strings.TrimSpace(more) != "" {
			return nil, fmt.Errorf("types: bad column declaration %q", strings.TrimSpace(p))
		}
		t, err := ParseType(typ)
		if err != nil {
			return nil, err
		}
		cols = append(cols, Column{Name: name, Type: t})
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("types: empty schema declaration")
	}
	return NewSchema(cols...), nil
}

// cutWord cuts the first whitespace-separated word off s, returning the
// word, empty when there is none, and what follows it.
func cutWord(s string) (word, rest string) {
	s = strings.TrimLeftFunc(s, unicode.IsSpace)
	if i := strings.IndexFunc(s, unicode.IsSpace); i >= 0 {
		return s[:i], s[i:]
	}
	return s, ""
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	if i, ok := s.byName[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Names returns the column names in order.
func (s *Schema) Names() []string {
	out := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		out[i] = c.Name
	}
	return out
}

// Project returns a new schema containing only the named columns, in the
// given order.
func (s *Schema) Project(names []string) (*Schema, error) {
	cols := make([]Column, 0, len(names))
	for _, n := range names {
		i := s.Index(n)
		if i < 0 {
			return nil, fmt.Errorf("types: unknown column %q", n)
		}
		cols = append(cols, s.Columns[i])
	}
	return NewSchema(cols...), nil
}

// String renders the schema as a declaration string.
func (s *Schema) String() string {
	var b strings.Builder
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	return b.String()
}

// Substring is SQL SUBSTRING(s, start, n) over bytes, shared by the SQL engine
// and the store-side aggregation. Start is 1-based; 0- and 1-based starts both
// appear in the wild and Spark's SUBSTRING(s, 0, n) == SUBSTRING(s, 1, n),
// which the Table I queries rely on, so 0 counts as 1. A negative start counts
// from the end and a negative n is empty.
func Substring(s string, start, n int64) string {
	lo, hi := SubstringRange(int64(len(s)), start, n)
	return s[lo:hi]
}

// SubstringRange is the byte range [lo, hi) that Substring cuts out of a
// string of size bytes, so a caller holding the bytes cuts them itself.
func SubstringRange(size, start, n int64) (lo, hi int64) {
	if start > 0 {
		start--
	} else if start < 0 {
		start = max(size+start, 0)
	}
	if start >= size || n <= 0 {
		return 0, 0
	}
	return start, start + min(n, size-start)
}

// Coerce parses the raw CSV field text into a Value of the column type. An
// empty field is NULL in every type, as in Spark's CSV reader and as the
// pushdown matcher reads it. Unparseable numerics become NULL too (CSV data
// is dirty; the paper's ETL storlet cleanses on upload, but the engine must
// still be safe).
func Coerce(raw string, t Type) Value {
	if t == String && raw != "" {
		return Str(raw)
	}
	return coerceNumber(raw, t)
}

// CoerceBytes is Coerce over a field of a scanned record, which the scanner
// overwrites with the next one: a STRING value holds a copy of the field, any
// other value nothing of it, so only the first allocates. Numbers go through
// csvio.FastFloat, which is strconv.ParseFloat bit for bit on the plain
// decimals CSV cells hold and allocates nothing; on an integer it is exact
// (its mantissa stays below 2^53), so an INT cell reads as strconv.ParseInt
// would. Other syntax falls back to strconv.
func CoerceBytes(raw []byte, t Type) Value {
	switch t {
	case String:
		if len(raw) > 0 {
			return Str(string(raw))
		}
	case Int, Float:
		if f, ok := csvio.FastFloat(raw); ok {
			if t == Int {
				return IntV(int64(f))
			}
			return FloatV(f)
		}
	}
	return coerceNumber(string(raw), t)
}

// coerceNumber is Coerce for the types whose values do not hold raw, and
// for an empty field.
func coerceNumber(raw string, t Type) Value {
	if raw == "" {
		return NullValue()
	}
	switch t {
	case Int:
		if i, err := strconv.ParseInt(raw, 10, 64); err == nil {
			return IntV(i)
		}
		if f, err := strconv.ParseFloat(raw, 64); err == nil {
			return IntV(int64(f))
		}
	case Float:
		if f, err := strconv.ParseFloat(raw, 64); err == nil {
			return FloatV(f)
		}
	case Bool:
		if b, err := strconv.ParseBool(strings.ToLower(raw)); err == nil {
			return BoolV(b)
		}
	}
	return NullValue()
}
