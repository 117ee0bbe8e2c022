// Package aggfilter implements partial aggregation at the object store —
// the paper's §IV vision beyond plain filtering: "it can perform
// aggregations on individual object requests to facilitate the construction
// of graphs from a large dataset".
//
// The filter groups CSV records by key columns and emits one record per
// group holding partial aggregates (sum/count/min/max) for its byte range.
// Because every supported aggregate is algebraic, partials from parallel
// range requests merge exactly at the compute side (Merge), so a GROUP BY
// query can move *one record per group per split* instead of every matching
// row — often orders of magnitude less than even a selective filter.
package aggfilter

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"scoop/internal/csvio"
	"scoop/internal/pushdown"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
)

// FilterName is the name pushdown tasks use to invoke this filter.
const FilterName = "agg"

// Option keys in Task.Options.
const (
	// OptGroup is a comma-separated list of group-by column names; empty
	// aggregates the whole range into one record.
	OptGroup = "group"
	// OptAggs is a comma-separated list of "func:column" specs, e.g.
	// "sum:index,count:*,min:sumHC". Required.
	OptAggs = "aggs"
	// OptHeader ("true") marks the object's first record as a header.
	OptHeader = "header"
)

// Func is an algebraic aggregate function.
type Func string

// Supported aggregate functions.
const (
	Sum   Func = "sum"
	Count Func = "count"
	Min   Func = "min"
	Max   Func = "max"
)

// Spec is one aggregate in the output.
type Spec struct {
	Func   Func
	Column string // "*" allowed for count
}

// String renders the spec in option form.
func (s Spec) String() string { return string(s.Func) + ":" + s.Column }

// ParseSpecs parses the OptAggs value.
func ParseSpecs(raw string) ([]Spec, error) {
	if strings.TrimSpace(raw) == "" {
		return nil, errors.New("aggfilter: empty aggs")
	}
	var out []Spec
	for _, part := range strings.Split(raw, ",") {
		fc := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(fc) != 2 {
			return nil, fmt.Errorf("aggfilter: bad agg spec %q", part)
		}
		f := Func(strings.ToLower(fc[0]))
		switch f {
		case Sum, Count, Min, Max:
		default:
			return nil, fmt.Errorf("aggfilter: unknown function %q", fc[0])
		}
		if fc[1] == "" {
			return nil, fmt.Errorf("aggfilter: spec %q missing column", part)
		}
		if fc[1] == "*" && f != Count {
			return nil, fmt.Errorf("aggfilter: * only valid for count")
		}
		out = append(out, Spec{Func: f, Column: fc[1]})
	}
	return out, nil
}

// FormatSpecs renders specs for OptAggs.
func FormatSpecs(specs []Spec) string {
	parts := make([]string, len(specs))
	for i, s := range specs {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

// Filter is the partial-aggregation storlet.
type Filter struct{}

// New returns the filter, ready to deploy.
func New() *Filter { return &Filter{} }

// Name implements storlet.Filter.
func (*Filter) Name() string { return FilterName }

type partial struct {
	sum   float64
	count int64
	min   types.Value
	max   types.Value
	any   bool
}

type groupState struct {
	keys []string
	aggs []partial
}

// Invoke implements storlet.Filter.
func (f *Filter) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	task := ctx.Task
	if task == nil || task.Schema == "" {
		return errors.New("aggfilter: task needs a schema")
	}
	schema, err := types.ParseSchema(task.Schema)
	if err != nil {
		return fmt.Errorf("aggfilter: %w", err)
	}
	specs, err := ParseSpecs(task.Options[OptAggs])
	if err != nil {
		return err
	}
	specIdx := make([]int, len(specs))
	for i, s := range specs {
		if s.Column == "*" {
			specIdx[i] = -1
			continue
		}
		idx := schema.Index(s.Column)
		if idx < 0 {
			return fmt.Errorf("aggfilter: aggregate column %q not in schema", s.Column)
		}
		specIdx[i] = idx
	}
	var groupIdx []int
	if raw := task.Options[OptGroup]; strings.TrimSpace(raw) != "" {
		for _, name := range strings.Split(raw, ",") {
			idx := schema.Index(strings.TrimSpace(name))
			if idx < 0 {
				return fmt.Errorf("aggfilter: group column %q not in schema", name)
			}
			groupIdx = append(groupIdx, idx)
		}
	}
	preds, err := pushdown.Bind(task.Predicates, schema.Index)
	if err != nil {
		return fmt.Errorf("aggfilter: %w", err)
	}

	rr := csvio.AcquireRangeReader(in, ctx.RangeStart, ctx.RangeEnd)
	defer rr.Release()
	skippedHeader := task.Options[OptHeader] != "true" || ctx.RangeStart > 0
	groups := make(map[string]*groupState)
	var sc csvio.FieldScanner
	for {
		rec, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		if !skippedHeader {
			skippedHeader = true
			continue
		}
		fields := sc.Scan(rec, csvio.DefaultDelimiter)
		if !preds.Match(fields) {
			continue
		}
		key, keys := groupKey(groupIdx, fields)
		g, ok := groups[key]
		if !ok {
			g = &groupState{keys: keys, aggs: make([]partial, len(specs))}
			groups[key] = g
		}
		for i, s := range specs {
			accumulate(&g.aggs[i], s.Func, specIdx[i], fields)
		}
	}

	// Deterministic output order.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw := storlet.AcquireWriter(out)
	defer storlet.ReleaseWriter(bw)
	for _, k := range keys {
		g := groups[k]
		cells := append([]string(nil), g.keys...)
		for i, s := range specs {
			cells = append(cells, renderPartial(g.aggs[i], s.Func))
		}
		line := make([][]byte, len(cells))
		for i, c := range cells {
			line[i] = []byte(c)
		}
		if err := csvio.WriteRecord(bw, line, csvio.DefaultDelimiter); err != nil {
			return err
		}
	}
	ctx.Logf("aggfilter: range [%d,%d): %d groups", ctx.RangeStart, ctx.RangeEnd, len(groups))
	return bw.Flush()
}

func groupKey(groupIdx []int, fields [][]byte) (string, []string) {
	if len(groupIdx) == 0 {
		return "", nil
	}
	keys := make([]string, len(groupIdx))
	var b strings.Builder
	for i, idx := range groupIdx {
		if idx < len(fields) {
			keys[i] = string(fields[idx])
		}
		b.WriteString(keys[i])
		b.WriteByte(0)
	}
	return b.String(), keys
}

func accumulate(p *partial, f Func, idx int, fields [][]byte) {
	if f == Count {
		if idx < 0 { // count(*)
			p.count++
			return
		}
		if idx < len(fields) && len(fields[idx]) > 0 {
			p.count++
		}
		return
	}
	if idx >= len(fields) {
		return
	}
	raw := string(fields[idx])
	if raw == "" {
		return
	}
	switch f {
	case Sum:
		if v, err := strconv.ParseFloat(raw, 64); err == nil {
			p.sum += v
			p.any = true
		}
	case Min, Max:
		v := types.Coerce(raw, types.Float)
		if v.IsNull() {
			v = types.Str(raw)
		}
		if !p.any {
			p.min, p.max = v, v
			p.any = true
			return
		}
		if v.Compare(p.min) < 0 {
			p.min = v
		}
		if v.Compare(p.max) > 0 {
			p.max = v
		}
	}
}

func renderPartial(p partial, f Func) string {
	switch f {
	case Count:
		return strconv.FormatInt(p.count, 10)
	case Sum:
		if !p.any {
			return ""
		}
		return strconv.FormatFloat(p.sum, 'g', -1, 64)
	case Min:
		if !p.any {
			return ""
		}
		return p.min.AsString()
	default: // Max
		if !p.any {
			return ""
		}
		return p.max.AsString()
	}
}

// Merge combines partial-aggregate records from parallel splits into final
// records. Each record is groupKeys... followed by one value per spec; the
// merge is exact because every function is algebraic.
func Merge(partials [][]string, groupCols int, specs []Spec) ([][]string, error) {
	type merged struct {
		keys []string
		vals []partial
	}
	groups := make(map[string]*merged)
	for _, rec := range partials {
		if len(rec) != groupCols+len(specs) {
			return nil, fmt.Errorf("aggfilter: partial record width %d, want %d", len(rec), groupCols+len(specs))
		}
		key := strings.Join(rec[:groupCols], "\x00")
		g, ok := groups[key]
		if !ok {
			g = &merged{keys: append([]string(nil), rec[:groupCols]...), vals: make([]partial, len(specs))}
			groups[key] = g
		}
		for i, s := range specs {
			raw := rec[groupCols+i]
			if raw == "" {
				continue
			}
			switch s.Func {
			case Count:
				n, err := strconv.ParseInt(raw, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("aggfilter: bad count partial %q", raw)
				}
				g.vals[i].count += n
			case Sum:
				v, err := strconv.ParseFloat(raw, 64)
				if err != nil {
					return nil, fmt.Errorf("aggfilter: bad sum partial %q", raw)
				}
				g.vals[i].sum += v
				g.vals[i].any = true
			case Min, Max:
				v := types.Coerce(raw, types.Float)
				if v.IsNull() {
					v = types.Str(raw)
				}
				p := &g.vals[i]
				if !p.any {
					p.min, p.max = v, v
					p.any = true
					continue
				}
				if v.Compare(p.min) < 0 {
					p.min = v
				}
				if v.Compare(p.max) > 0 {
					p.max = v
				}
			}
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]string, 0, len(groups))
	for _, k := range keys {
		g := groups[k]
		rec := append([]string(nil), g.keys...)
		for i, s := range specs {
			rec = append(rec, renderPartial(g.vals[i], s.Func))
		}
		out = append(out, rec)
	}
	return out, nil
}
