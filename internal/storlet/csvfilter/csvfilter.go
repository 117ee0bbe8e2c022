// Package csvfilter implements the CSVStorlet (paper §V): a pushdown filter
// that applies SQL projections and selections to CSV-formatted objects
// directly at the storage node, emitting only the columns and rows a query
// needs.
//
// The filter receives the byte range requested by a Spark-style task and
// follows input-split record alignment (see csvio), so parallel tasks over
// disjoint ranges of an object together process every record exactly once.
package csvfilter

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"scoop/internal/csvio"
	"scoop/internal/pushdown"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
)

// FilterName is the name pushdown tasks use to invoke this filter.
const FilterName = "csv"

// Filter is the CSV projection/selection storlet.
type Filter struct{}

// New returns the filter, ready to deploy into a storlet.Engine.
func New() *Filter { return &Filter{} }

// Name implements storlet.Filter.
func (*Filter) Name() string { return FilterName }

// Option keys understood in Task.Options.
const (
	// OptDelimiter overrides the field delimiter (default ",").
	OptDelimiter = "delimiter"
	// OptHeader ("true") marks the object's first record as a header to be
	// skipped. Only the range starting at offset 0 ever sees it.
	OptHeader = "header"
)

// compiled is the per-invocation execution plan.
type compiled struct {
	delim      byte
	skipHeader bool
	// projIdx are the field indexes to emit, in output order; nil = all.
	projIdx []int
	// match is the task's selection, bound to the schema's field positions.
	match pushdown.Matcher
}

// scanPool recycles the per-invocation field scanner (field-slice header
// plus unquoting scratch), completing the zero-allocation steady state: with
// the range reader and output writer pooled too, a filtered record costs no
// heap allocation at all.
var scanPool = sync.Pool{New: func() any { return new(csvio.FieldScanner) }}

// Invoke implements storlet.Filter.
func (f *Filter) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	c, err := compile(ctx.Task)
	if err != nil {
		return err
	}
	rr := csvio.AcquireRangeReader(in, ctx.RangeStart, ctx.RangeEnd)
	defer rr.Release()
	sc := scanPool.Get().(*csvio.FieldScanner)
	defer scanPool.Put(sc)
	bw := storlet.AcquireWriter(out)
	defer storlet.ReleaseWriter(bw)
	// A pure passthrough (no selection, no projection) emits records
	// verbatim; splitting them into fields would be pure overhead.
	needFields := c.projIdx != nil || len(c.match) > 0
	var fields [][]byte
	projected := make([][]byte, len(c.projIdx))
	skippedHeader := !c.skipHeader || ctx.RangeStart > 0
	rows, kept := 0, 0
	// The per-record loop: everything below runs once per CSV record, so it
	// must stay allocation-free — setup above is per-invocation and exempt.
	//scoop:hotpath
	for {
		rec, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fmt.Errorf("csvfilter: read: %w", err)
		}
		if !skippedHeader {
			skippedHeader = true
			continue
		}
		rows++
		if needFields {
			fields = sc.Scan(rec, c.delim)
		}
		if !c.match.Match(fields) {
			continue
		}
		kept++
		if c.projIdx == nil {
			// No projection: emit the record verbatim.
			if _, err := bw.Write(rec); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
			continue
		}
		for i, idx := range c.projIdx {
			projected[i] = nil // a short record projects NULL as an empty field
			if idx < len(fields) {
				projected[i] = fields[idx]
			}
		}
		if err := csvio.WriteRecord(bw, projected, c.delim); err != nil {
			return err
		}
	}
	ctx.Logf("csvfilter: range [%d,%d): %d rows in, %d rows out", ctx.RangeStart, ctx.RangeEnd, rows, kept)
	return bw.Flush()
}

func compile(task *pushdown.Task) (*compiled, error) {
	if task == nil {
		return nil, errors.New("csvfilter: nil task")
	}
	if err := task.Validate(); err != nil {
		return nil, err
	}
	c := &compiled{delim: csvio.DefaultDelimiter}
	if d := task.Options[OptDelimiter]; d != "" {
		if len(d) != 1 {
			return nil, fmt.Errorf("csvfilter: delimiter must be one byte, got %q", d)
		}
		c.delim = d[0]
	}
	c.skipHeader = task.Options[OptHeader] == "true"
	if task.Schema == "" {
		return nil, errors.New("csvfilter: task missing schema")
	}
	schema, err := types.ParseSchema(task.Schema)
	if err != nil {
		return nil, fmt.Errorf("csvfilter: %w", err)
	}
	if len(task.Columns) > 0 {
		c.projIdx = make([]int, len(task.Columns))
		for i, name := range task.Columns {
			idx := schema.Index(name)
			if idx < 0 {
				return nil, fmt.Errorf("csvfilter: projected column %q not in schema", name)
			}
			c.projIdx[i] = idx
		}
	}
	if c.match, err = pushdown.Bind(task.Predicates, schema.Index); err != nil {
		return nil, fmt.Errorf("csvfilter: %w", err)
	}
	return c, nil
}
