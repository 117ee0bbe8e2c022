package main

import (
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"math"

	"scoop/internal/pushdown"
	"scoop/internal/sql/types"
	"scoop/internal/storlet"
	"scoop/internal/storlet/etl"
)

// rowsDigest pins a query result: the row count plus a checksum that does
// not depend on row order (the sum of per-row hashes).
type rowsDigest struct {
	rows int
	sum  uint64
}

func digestRows(rows []types.Row) rowsDigest {
	// FNV-1a, inlined so that verifying a result allocates nothing.
	const offset, prime = 14695981039346656037, 1099511628211
	d := rowsDigest{rows: len(rows)}
	for _, row := range rows {
		h := uint64(offset)
		for _, v := range row {
			n := uint64(v.I)
			switch v.T {
			case types.String:
				for i := 0; i < len(v.S); i++ {
					h = (h ^ uint64(v.S[i])) * prime
				}
			case types.Float:
				n = math.Float64bits(v.F)
			case types.Bool:
				n = 0
				if v.B {
					n = 1
				}
			}
			h = (h ^ uint64(v.T)) * prime
			for i := 0; i < 64; i += 8 {
				h = (h ^ (n >> i & 0xff)) * prime
			}
		}
		d.sum += h
	}
	return d
}

// cleansePipeline is the PUT pipeline of the ingest container.
func cleansePipeline() []*pushdown.Task {
	return []*pushdown.Task{{
		Filter:  etl.CleanseName,
		Options: map[string]string{"columns": "10", "required": "0,1"},
	}}
}

// cleansed is what the store must hold after an upload of one payload.
type cleansed struct {
	body []byte
	etag string
}

// cleanseLocally runs the cleanse filter on a payload outside the store, the
// oracle for the ingest workload.
func cleanseLocally(ctx context.Context, payload []byte) (cleansed, error) {
	var out bytes.Buffer
	sctx := &storlet.Context{Ctx: ctx, Task: cleansePipeline()[0], RangeEnd: int64(1) << 62, ObjectSize: -1}
	if err := etl.NewCleanse().Invoke(sctx, bytes.NewReader(payload), &out); err != nil {
		return cleansed{}, fmt.Errorf("oracle: cleanse: %w", err)
	}
	sum := md5.Sum(out.Bytes())
	return cleansed{body: out.Bytes(), etag: hex.EncodeToString(sum[:])}, nil
}
