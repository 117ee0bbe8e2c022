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

// Selection is a csv task compiled for a record loop: the plan Invoke runs
// per invocation, and the one a compute-side scan of raw records runs, so
// both modes read the records alike.
type Selection struct {
	// Delim separates the fields.
	Delim byte
	// Header marks the object's first record as a header to skip.
	Header bool
	// Project lists the field indexes to emit, in output order; nil = all.
	Project []int
	// Match is the task's selection, bound to the schema's field positions.
	Match pushdown.Matcher
}

// scanPool recycles the per-invocation field scanner (field-slice header
// plus unquoting scratch), completing the zero-allocation steady state: with
// the range reader and output writer pooled too, a filtered record costs no
// heap allocation at all.
var scanPool = sync.Pool{New: func() any { return new(csvio.FieldScanner) }}

// Invoke implements storlet.Filter.
func (f *Filter) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	c, err := Compile(ctx.Task)
	if err != nil {
		return fmt.Errorf("%w: %w", storlet.ErrBadTask, err)
	}
	rr := csvio.AcquireRangeReader(in, ctx.RangeStart, ctx.RangeEnd)
	defer rr.Release()
	sc := scanPool.Get().(*csvio.FieldScanner)
	defer scanPool.Put(sc)
	bw := storlet.AcquireWriter(out)
	defer storlet.ReleaseWriter(bw)
	projected := make([][]byte, len(c.Project))
	skippedHeader := !c.Header || ctx.RangeStart > 0
	// The per-record loop: everything below runs once per CSV record, so it
	// must stay allocation-free — setup above is per-invocation and exempt.
	//scoop:hotpath
	for {
		rec, err := rr.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				break
			}
			return fmt.Errorf("csvfilter: read: %w", err)
		}
		if !skippedHeader {
			skippedHeader = true
			continue
		}
		// A rejected record is read only as far as the column of the
		// conjunct that rejects it, a kept one is split as far as its last
		// projected column, a passthrough record not at all.
		if !c.Match.MatchRecord(rec, c.Delim, sc) {
			continue
		}
		if c.Project == nil {
			// No projection: emit the record verbatim.
			if _, err := bw.Write(rec); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
			continue
		}
		sc.Reset(rec, c.Delim)
		for i, idx := range c.Project {
			projected[i], _ = sc.Field(idx) // a short record projects NULL as an empty field
		}
		if err := csvio.WriteRecord(bw, projected, c.Delim); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Compile checks a csv task and binds it to its schema.
func Compile(task *pushdown.Task) (*Selection, error) {
	if task == nil {
		return nil, errors.New("csvfilter: nil task")
	}
	if err := task.Validate(); err != nil {
		return nil, err
	}
	c := &Selection{Delim: csvio.DefaultDelimiter}
	if d := task.Options[OptDelimiter]; d != "" {
		if len(d) != 1 {
			return nil, fmt.Errorf("csvfilter: delimiter must be one byte, got %q", d)
		}
		c.Delim = d[0]
	}
	c.Header = task.Options[OptHeader] == "true"
	if task.Schema == "" {
		return nil, errors.New("csvfilter: task missing schema")
	}
	schema, err := types.ParseSchema(task.Schema)
	if err != nil {
		return nil, fmt.Errorf("csvfilter: %w", err)
	}
	if len(task.Columns) > 0 {
		c.Project = make([]int, len(task.Columns))
		for i, name := range task.Columns {
			idx := schema.Index(name)
			if idx < 0 {
				return nil, fmt.Errorf("csvfilter: projected column %q not in schema", name)
			}
			c.Project[i] = idx
		}
	}
	if c.Match, err = pushdown.Bind(task.Predicates, schema.Index); err != nil {
		return nil, fmt.Errorf("csvfilter: %w", err)
	}
	return c, nil
}
