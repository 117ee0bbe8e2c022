// Package csvfilter implements the CSVStorlet (paper §V): a pushdown filter
// that applies SQL projections and selections to CSV-formatted objects
// directly at the storage node, emitting only the columns and rows a query
// needs.
//
// A task whose options also carry an agg.Spec (FoldTask) is partial
// aggregation at the store, the paper's §IV vision beyond plain filtering:
// the filter folds each record it keeps into a group table instead of
// writing it, and emits one CSV record per group: the key values, the values
// of the group's first row, and the cells of its accumulators. The compute
// side merges those records into a table of its own, so a GROUP BY query
// moves one record per group per split instead of every matching row.
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
	"scoop/internal/sql/agg"
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
	// Fold is the task's aggregation, its terms bound to the schema's field
	// positions; nil writes the kept records instead of folding them.
	Fold *agg.Spec
	// schema types the fields Fold reads.
	schema *types.Schema
}

// maxGroups bounds the group table of one invocation, so that a GROUP BY on
// a near-unique key cannot hold a split in store memory. When the table
// fills, its groups are written out in first-appearance order and the
// records that follow fold into an empty table: a group met again leaves a
// second record, which the compute side merges into the first. Sums are
// exact, so they do not depend on how a group's rows are cut into records.
const maxGroups = 1 << 14

// FoldTask returns a copy of the csv task scan whose options carry spec as
// well, spec's terms indexing scan's columns: the filter then folds the
// records scan keeps and writes the partial records of spec's groups
// (agg.Spec.Record) instead of the records.
func FoldTask(scan *pushdown.Task, spec *agg.Spec) *pushdown.Task {
	t := *scan
	t.Options = spec.Options()
	for k, v := range scan.Options {
		t.Options[k] = v
	}
	return &t
}

// scanPool recycles the per-invocation field scanner (field-slice header
// plus unquoting scratch), completing the zero-allocation steady state: with
// the range reader and output writer pooled too, a filtered record costs no
// heap allocation at all.
var scanPool = sync.Pool{New: func() any { return new(csvio.FieldScanner) }}

// tablePool recycles the group tables of fold tasks, so that a fold reuses
// the index, keys and accumulator pages an earlier one grew.
var tablePool = sync.Pool{New: func() any { return new(agg.Table) }}

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
	var groups *agg.Table
	if c.Fold != nil {
		groups = tablePool.Get().(*agg.Table)
		defer tablePool.Put(groups)
		c.Fold.ResetTable(groups)
	}
	skippedHeader := !c.Header || ctx.RangeStart > 0
	// The per-record loop: everything below runs once per CSV record, so it
	// must stay allocation-free — setup above is per-invocation and exempt.
	// A kept record goes to one of two sinks: the group table, or the output.
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
		if groups != nil {
			// A folded record is split only as far as the fields the
			// aggregation reads.
			sc.Reset(rec, c.Delim)
			groups.FoldRecord(c.Fold, c.schema, sc)
			//scoop:cold once per maxGroups groups
			if groups.Len() == maxGroups {
				if err := groups.WriteRecords(bw, c.Delim); err != nil {
					return err
				}
			}
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
	if groups != nil {
		if err := groups.WriteRecords(bw, c.Delim); err != nil {
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
	if task.Options[agg.OptFold] != "" {
		if c.Fold, err = bindFold(task, schema, c.Project); err != nil {
			return nil, fmt.Errorf("csvfilter: %w", err)
		}
		c.schema = schema
	}
	return c, nil
}

// bindFold reads the aggregation task's options carry, whose terms index
// the projected columns (all of schema's when project is nil), and binds its
// terms to the fields of schema's records.
func bindFold(task *pushdown.Task, schema *types.Schema, project []int) (*agg.Spec, error) {
	spec, err := agg.ParseSpec(task.Options)
	if err != nil {
		return nil, err
	}
	read := schema
	if project != nil {
		if read, err = schema.Project(task.Columns); err != nil {
			return nil, err
		}
	}
	if err := spec.Check(read); err != nil {
		return nil, err
	}
	if project != nil {
		spec.Over(project)
	}
	return spec, nil
}
