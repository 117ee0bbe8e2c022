// Package jsonfilter extends pushdown to a second data format, the paper's
// §VII direction ("object stores are not limited in the types and data
// formats they can store"): a filter over JSON-lines objects that evaluates
// selection predicates on document fields and emits the projected fields as
// CSV — the common representation the compute side already consumes.
//
// Nested fields are addressed with dotted paths ("meter.location.city").
// Byte ranges follow the same newline-record split semantics as CSV.
package jsonfilter

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"scoop/internal/csvio"
	"scoop/internal/pushdown"
	"scoop/internal/storlet"
)

// FilterName is the name pushdown tasks use to invoke this filter.
const FilterName = "jsonl"

// Option keys.
const (
	// OptSkipInvalid ("true") silently drops lines that are not valid JSON
	// objects instead of failing the request.
	OptSkipInvalid = "skip_invalid"
)

// Filter is the JSON-lines projection/selection storlet.
type Filter struct{}

// New returns the filter, ready to deploy.
func New() *Filter { return &Filter{} }

// Name implements storlet.Filter.
func (*Filter) Name() string { return FilterName }

// Invoke implements storlet.Filter. Task.Columns names the projected fields
// (dotted paths allowed; required — JSON objects have no inherent column
// order, so an explicit projection defines the CSV layout). Predicates
// apply to field paths the same way.
func (f *Filter) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	task := ctx.Task
	if task == nil {
		return errors.New("jsonfilter: nil task")
	}
	if len(task.Columns) == 0 {
		return errors.New("jsonfilter: projection (Columns) is required for JSON")
	}
	skipInvalid := task.Options[OptSkipInvalid] == "true"

	rr := csvio.AcquireRangeReader(in, ctx.RangeStart, ctx.RangeEnd)
	defer rr.Release()
	bw := storlet.AcquireWriter(out)
	defer storlet.ReleaseWriter(bw)
	rows, kept := 0, 0
	for {
		rec, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if len(bytes.TrimSpace(rec)) == 0 {
			continue
		}
		rows++
		doc, err := ParseDoc(rec)
		if err != nil {
			if skipInvalid {
				continue
			}
			return fmt.Errorf("jsonfilter: line %d: %w", rows, err)
		}
		if !Matches(task.Predicates, doc) {
			continue
		}
		kept++
		fields := make([][]byte, len(task.Columns))
		for i, path := range task.Columns {
			v, ok := Lookup(doc, path)
			if !ok {
				fields[i] = nil
				continue
			}
			fields[i] = []byte(Render(v))
		}
		if err := csvio.WriteRecord(bw, fields, csvio.DefaultDelimiter); err != nil {
			return err
		}
	}
	ctx.Logf("jsonfilter: range [%d,%d): %d docs in, %d out", ctx.RangeStart, ctx.RangeEnd, rows, kept)
	return bw.Flush()
}

// ParseDoc decodes one JSON object, preserving number precision.
func ParseDoc(line []byte) (map[string]any, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, err
	}
	return doc, nil
}

// Lookup resolves a dotted path in the document.
func Lookup(doc map[string]any, path string) (any, bool) {
	cur := any(doc)
	for _, part := range strings.Split(path, ".") {
		m, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		cur, ok = m[part]
		if !ok {
			return nil, false
		}
	}
	return cur, true
}

// Render turns a JSON value into its CSV field text.
func Render(v any) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case json.Number:
		return x.String()
	case bool:
		return strconv.FormatBool(x)
	default:
		// Arrays/objects: compact JSON text.
		b, err := json.Marshal(x)
		if err != nil {
			return ""
		}
		return string(b)
	}
}

// Matches applies the predicate conjunction to the document. The compute-side
// JSON source evaluates documents with these same functions when it runs
// without pushdown.
func Matches(preds []pushdown.Predicate, doc map[string]any) bool {
	for _, p := range preds {
		v, ok := Lookup(doc, p.Column)
		null := !ok || v == nil
		raw := ""
		if !null {
			raw = Render(v)
		}
		if !p.Matches(raw, null) {
			return false
		}
	}
	return true
}
