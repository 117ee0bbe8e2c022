// Package compressfilter implements the transfer-compression pushdown
// filter the paper's §VI-C/§VII proposes: for queries with low data
// selectivity — where filtering alone cannot shrink the transfer — the
// object store can spend CPU compressing the response stream instead,
// recovering Parquet's main advantage without changing the stored format.
//
// The filter is designed to be *pipelined* after a selection filter on the
// same request (paper §IV-B), so the stream is first filtered, then
// compressed, and decompressed by the connector at the compute side.
package compressfilter

import (
	"compress/flate"
	"fmt"
	"io"
	"strconv"

	"scoop/internal/storlet"
)

// FilterName is the name pushdown tasks use to invoke this filter.
const FilterName = "compress"

// OptLevel selects the DEFLATE level (1..9; default flate.BestSpeed).
const OptLevel = "level"

// Filter compresses the request stream with DEFLATE.
type Filter struct{}

// New returns the filter, ready to deploy into a storlet.Engine.
func New() *Filter { return &Filter{} }

// Name implements storlet.Filter.
func (*Filter) Name() string { return FilterName }

// Invoke implements storlet.Filter.
func (*Filter) Invoke(ctx *storlet.Context, in io.Reader, out io.Writer) error {
	level := flate.BestSpeed
	if raw := ctx.Task.Options[OptLevel]; raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < flate.BestSpeed || v > flate.BestCompression {
			return fmt.Errorf("%w: compress: bad level %q", storlet.ErrBadTask, raw)
		}
		level = v
	}
	fw, err := flate.NewWriter(out, level)
	if err != nil {
		return err
	}
	if _, err := io.Copy(fw, in); err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	return fw.Close()
}

// NewReader wraps a compressed response stream for the compute side.
func NewReader(r io.Reader) io.ReadCloser { return flate.NewReader(r) }
