// Package etl provides upload-path transformation filters (paper §V:
// "Storlets permits this in the PUT data path. We use Storlet for data
// cleansing and for modifying the data format (e.g., split a column into
// multiple ones)"). Running ETL once at upload means analytics jobs read
// clean, query-friendly data without rewriting huge datasets.
package etl

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"scoop/internal/csvio"
	"scoop/internal/storlet"
)

// Filter names.
const (
	CleanseName = "etl-cleanse"
	SplitName   = "etl-splitcol"
)

// Cleanse is a PUT-path filter that trims whitespace from every field and
// drops malformed records: wrong field count or empty required fields.
//
// Options:
//
//	columns  — expected field count (required)
//	required — comma-separated indexes that must be non-empty (default none)
type Cleanse struct{}

// NewCleanse returns the cleansing filter.
func NewCleanse() *Cleanse { return &Cleanse{} }

// Name implements storlet.Filter.
func (*Cleanse) Name() string { return CleanseName }

// Invoke implements storlet.Filter.
func (*Cleanse) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	want, err := intOption(ctx, "columns")
	if err != nil {
		return err
	}
	var required []int
	if raw := ctx.Task.Options["required"]; raw != "" {
		for _, part := range strings.Split(raw, ",") {
			i, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || i < 0 || i >= want {
				return fmt.Errorf("%w: etl: bad required index %q", storlet.ErrBadTask, part)
			}
			required = append(required, i)
		}
	}
	rr := csvio.AcquireRangeReader(in, ctx.RangeStart, ctx.RangeEnd)
	defer rr.Release()
	bw := storlet.AcquireWriter(out)
	defer storlet.ReleaseWriter(bw)
	var sc csvio.FieldScanner
	for {
		rec, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		fields := sc.Scan(rec, csvio.DefaultDelimiter)
		if len(fields) != want {
			continue
		}
		ok := true
		for i := range fields {
			fields[i] = bytes.TrimSpace(fields[i])
		}
		for _, ri := range required {
			if len(fields[ri]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if err := csvio.WriteRecord(bw, fields, csvio.DefaultDelimiter); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Split is a PUT-path filter that splits one column into several on a
// separator, e.g. "2015-01-17 10:20:00" into a day and a time column.
//
// Options:
//
//	column — index of the column to split (required)
//	sep    — separator string (default " ")
//	parts  — number of resulting columns (default 2); missing parts are empty
type Split struct{}

// NewSplit returns the column-splitting filter.
func NewSplit() *Split { return &Split{} }

// Name implements storlet.Filter.
func (*Split) Name() string { return SplitName }

// Invoke implements storlet.Filter.
func (*Split) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	col, err := intOption(ctx, "column")
	if err != nil {
		return err
	}
	sep := ctx.Task.Options["sep"]
	if sep == "" {
		sep = " "
	}
	parts := 2
	if raw := ctx.Task.Options["parts"]; raw != "" {
		parts, err = strconv.Atoi(raw)
		if err != nil || parts < 2 {
			return fmt.Errorf("%w: etl: bad parts %q", storlet.ErrBadTask, raw)
		}
	}
	rr := csvio.AcquireRangeReader(in, ctx.RangeStart, ctx.RangeEnd)
	defer rr.Release()
	bw := storlet.AcquireWriter(out)
	defer storlet.ReleaseWriter(bw)
	var sc csvio.FieldScanner
	sepB := []byte(sep)
	for {
		rec, err := rr.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return err
		}
		fields := sc.Scan(rec, csvio.DefaultDelimiter)
		if col >= len(fields) {
			// Leave short records untouched; a cleansing stage upstream in
			// the pipeline is responsible for dropping them.
			if err := csvio.WriteRecord(bw, fields, csvio.DefaultDelimiter); err != nil {
				return err
			}
			continue
		}
		split := bytes.SplitN(fields[col], sepB, parts)
		outFields := make([][]byte, 0, len(fields)+parts-1)
		outFields = append(outFields, fields[:col]...)
		outFields = append(outFields, split...)
		for i := len(split); i < parts; i++ {
			outFields = append(outFields, nil)
		}
		outFields = append(outFields, fields[col+1:]...)
		if err := csvio.WriteRecord(bw, outFields, csvio.DefaultDelimiter); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func intOption(ctx *storlet.Context, key string) (int, error) {
	raw, ok := ctx.Task.Options[key]
	if !ok {
		return 0, fmt.Errorf("%w: etl: missing option %q", storlet.ErrBadTask, key)
	}
	v, err := strconv.Atoi(raw)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("%w: etl: bad option %s=%q", storlet.ErrBadTask, key, raw)
	}
	return v, nil
}
