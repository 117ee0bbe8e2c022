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
	for _, fold := range []string{
		"", "{}", "sum:1", `{"aggs":[{"kind":1}],"group":0}`, `{"aggs":[{"kind":7,"arg":{"col":1}}]}`,
		`{"aggs":[{"kind":99}]}`, `{"aggs":[{"kind":"sum"}]}`,
	} {
		opts := map[string]string{OptFold: fold}
		if s, err := ParseSpec(opts); err == nil {
			t.Errorf("ParseSpec(%v) accepted: %+v", opts, s)
		}
	}
}

// wire is a's cells as the store writes them.
func wire(a *Acc, kind Kind) [][]byte {
	text, ends := a.appendCells(kind, nil, nil)
	var cells [][]byte
	start := 0
	for _, end := range ends {
		cells = append(cells, text[start:end])
		start = end
	}
	return cells
}

// An accumulator's cells, rendered as the store writes them and merged
// from their bytes, with the value cell typed as the record schema types it,
// are the accumulator: float sums to the bit.
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
			var got Acc
			got.MergeCells(kind, wire(&a, kind), record.Columns[0].Type)
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
