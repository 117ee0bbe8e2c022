package agg

import (
	"math"
	"reflect"
	"testing"

	"scoop/internal/sql/types"
)

// A spec survives the trip through task options.
func TestSpecOptionsRoundTrip(t *testing.T) {
	specs := []*Spec{
		{Group: []Term{{Col: 1, Sub: true, Start: 0, Len: 7}, {Col: 0}}, Firsts: []Term{{Col: 0}},
			Aggs: []Call{{Kind: Sum, Arg: Term{Col: 2}}, {Kind: CountStar}, {Kind: Count, Arg: Term{Col: 3}},
				{Kind: Avg, Arg: Term{Col: 2}}, {Kind: Min, Arg: Term{Col: 1, Sub: true, Start: -3, Len: 2}},
				{Kind: Max, Arg: Term{Col: 2}}, {Kind: First, Arg: Term{Col: 4}}}},
		{Aggs: []Call{{Kind: CountStar}}},
		{Group: []Term{{Col: 0}}},
	}
	for _, want := range specs {
		got, err := ParseSpec(want.Options())
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("ParseSpec(%v) = %+v, %v, want %+v", want.Options(), got, err, want)
		}
	}
	for _, opts := range []map[string]string{
		{}, {OptAggs: "{}", OptGroup: "[]"}, {OptAggs: "sum:1", OptGroup: "[]"}, {OptAggs: `{"aggs":[{"kind":1}]}`, OptGroup: "0"},
		{OptAggs: `{"aggs":[{"kind":7,"arg":{"col":1}}]}`, OptGroup: "[]"}, {OptAggs: `{"aggs":[{"kind":99}]}`, OptGroup: "[]"},
		{OptAggs: `{"aggs":[{"kind":"sum"}]}`, OptGroup: "[]"},
	} {
		if s, err := ParseSpec(opts); err == nil {
			t.Errorf("ParseSpec(%v) accepted: %+v", opts, s)
		}
	}
}

// An accumulator's cells, rendered as CSV renders them and read back as the
// record schema types them, are the accumulator: float sums to the bit.
func TestCellsRoundTrip(t *testing.T) {
	in := types.NewSchema(types.Column{Name: "s", Type: types.String}, types.Column{Name: "f", Type: types.Float})
	for _, kind := range []Kind{CountStar, Count, Sum, Avg, Min, Max, First} {
		for _, col := range []int{0, 1} {
			var a Acc
			for _, v := range []types.Value{types.FloatV(0.1), types.FloatV(0.2), types.FloatV(-1e-17)} {
				if col == 0 {
					v = types.Str(v.AsString())
				}
				a.Add(kind, v)
			}
			spec := &Spec{Aggs: []Call{{Kind: kind, Arg: Term{Col: col}}}}
			record, err := spec.Record(in)
			if err != nil || record.Len() != kind.Width() {
				t.Fatalf("kind %d: record %v, %v, width %d", kind, record, err, kind.Width())
			}
			var cells []types.Value
			for i, v := range a.AppendCells(kind, nil) {
				cells = append(cells, types.Coerce(v.AsString(), record.Columns[i].Type))
			}
			var got Acc
			o := FromCells(kind, cells)
			got.Merge(kind, &o)
			want, have := a.Value(kind), got.Value(kind)
			if want.T != have.T || want.S != have.S || want.I != have.I || math.Float64bits(want.F) != math.Float64bits(have.F) {
				t.Errorf("kind %d over column %d: %v after the wire, want %v", kind, col, have, want)
			}
		}
	}
	if CountDistinct.Width() != 0 || SumDistinct.Width() != 0 {
		t.Error("DISTINCT aggregates have no cells")
	}
}

// CutKey takes a key apart into the renderings AppendKey put in.
func TestCutKey(t *testing.T) {
	vals := []types.Value{types.Str("a\x00b"), types.NullValue(), types.FloatV(0.1), types.IntV(-7), types.BoolV(true), types.Str("")}
	var key []byte
	for _, v := range vals {
		key = AppendKey(key, v)
	}
	for _, v := range vals {
		var text []byte
		text, key = CutKey(key)
		if string(text) != v.AsString() {
			t.Errorf("cut %q, want %q", text, v.AsString())
		}
	}
	if len(key) != 0 {
		t.Errorf("%d bytes left", len(key))
	}
}

func TestTermEval(t *testing.T) {
	sub := Term{Col: 0, Sub: true, Start: 0, Len: 7}
	if got := sub.Eval(types.Str("2015-01-17 10:20:00")); got != types.Str("2015-01") {
		t.Errorf("substring = %v", got)
	}
	if got := sub.Eval(types.NullValue()); !got.IsNull() {
		t.Errorf("substring of NULL = %v", got)
	}
	if got := (Term{Col: 0}).Eval(types.FloatV(1.5)); got != types.FloatV(1.5) {
		t.Errorf("column = %v", got)
	}
}
