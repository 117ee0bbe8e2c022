package testbed

import (
	"math"
	"testing"
)

const (
	gb = 1e9
	tb = 1e12
)

func wl(bytes, sel float64, st SelectivityType) Workload {
	return Workload{DatasetBytes: bytes, Selectivity: sel, Type: st}
}

// Paper: S_Q ≈ 1 at zero selectivity, with a small penalty (worst-case mean
// -3.4%).
func TestZeroSelectivityNearParity(t *testing.T) {
	tb_ := OSIC()
	for _, d := range []float64{50 * gb, 500 * gb, 3 * tb} {
		s := tb_.Speedup(wl(d, 0, Mixed))
		if s < 0.93 || s > 1.05 {
			t.Errorf("S_Q(%v bytes, sel 0) = %v, want ~0.97", d, s)
		}
	}
}

// Paper Fig. 5(b): selectivity 0.8 gives S_Q ≈ 5; 0.9 gives S_Q > 10 —
// superlinear growth with selectivity.
func TestSuperlinearSpeedup(t *testing.T) {
	tb_ := OSIC()
	s80 := tb_.Speedup(wl(3*tb, 0.80, Mixed))
	s90 := tb_.Speedup(wl(3*tb, 0.90, Mixed))
	if s80 < 3.5 || s80 > 6.5 {
		t.Errorf("S_Q(0.8) = %v, want ≈5", s80)
	}
	if s90 < 8 {
		t.Errorf("S_Q(0.9) = %v, want >10-ish", s90)
	}
	if s90 < 2*s80*0.9 {
		t.Errorf("not superlinear: S(0.9)=%v vs S(0.8)=%v", s90, s80)
	}
}

// Paper Fig. 6: very high selectivity reaches speedups up to ~31x.
func TestHighSelectivityCap(t *testing.T) {
	tb_ := OSIC()
	s := tb_.Speedup(wl(3*tb, 0.9999, Row))
	if s < 20 || s > 45 {
		t.Errorf("S_Q(3TB, 0.9999, row) = %v, want ≈31", s)
	}
	// Monotone in selectivity.
	prev := 0.0
	for _, sel := range []float64{0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99, 0.9999} {
		cur := tb_.Speedup(wl(3*tb, sel, Row))
		if cur < prev {
			t.Errorf("speedup not monotone at sel %v: %v < %v", sel, cur, prev)
		}
		prev = cur
	}
}

// Paper: larger datasets see larger speedups; the 500GB→3TB gain is smaller
// than the 50GB→500GB gain (the small dataset under-utilizes the testbed).
func TestDatasetSizeEffect(t *testing.T) {
	tb_ := OSIC()
	s50 := tb_.Speedup(wl(50*gb, 0.9, Column))
	s500 := tb_.Speedup(wl(500*gb, 0.9, Column))
	s3t := tb_.Speedup(wl(3*tb, 0.9, Column))
	if !(s50 < s500 && s500 <= s3t) {
		t.Errorf("size ordering: 50GB=%v 500GB=%v 3TB=%v", s50, s500, s3t)
	}
	if (s500 - s50) < (s3t - s500) {
		t.Errorf("gain should diminish: +%v then +%v", s500-s50, s3t-s500)
	}
	// Ballpark of the paper's Fig. 5/6 values (6.72, 10.23, 12.51).
	if s50 < 4 || s50 > 10 {
		t.Errorf("S_Q(50GB, 0.9, col) = %v, paper ≈6.7", s50)
	}
	if s500 < 7 || s500 > 14 {
		t.Errorf("S_Q(500GB, 0.9, col) = %v, paper ≈10.2", s500)
	}
	if s3t < 9 || s3t > 17 {
		t.Errorf("S_Q(3TB, 0.9, col) = %v, paper ≈12.5", s3t)
	}
}

// Paper: row selectivity outperforms column/mixed at high selectivity.
func TestRowBeatsColumn(t *testing.T) {
	tb_ := OSIC()
	for _, sel := range []float64{0.9, 0.95, 0.99} {
		r := tb_.Speedup(wl(3*tb, sel, Row))
		c := tb_.Speedup(wl(3*tb, sel, Column))
		m := tb_.Speedup(wl(3*tb, sel, Mixed))
		if !(r >= m && m >= c) {
			t.Errorf("sel %v: row=%v mixed=%v col=%v, want row >= mixed >= col", sel, r, m, c)
		}
	}
}

// Paper: the bottleneck shifts from the network to storage CPU at ≈60%.
func TestBottleneckShift(t *testing.T) {
	tb_ := OSIC()
	low := tb_.Bottleneck(wl(3*tb, 0.2, Mixed))
	high := tb_.Bottleneck(wl(3*tb, 0.99, Mixed))
	if low != "network" {
		t.Errorf("low-selectivity bottleneck = %s, want network", low)
	}
	if high != "storage-cpu" {
		t.Errorf("high-selectivity bottleneck = %s, want storage-cpu", high)
	}
}

// Paper Fig. 8: Parquet wins at zero selectivity (compression); Scoop wins
// from ≈60% column selectivity on 50GB, by ≈2.16x at 90%; the crossover
// moves left for larger datasets.
func TestParquetComparison(t *testing.T) {
	tb_ := OSIC()
	// Parquet beats plain Swift at sel 0.
	p0 := tb_.ParquetSpeedup(wl(50*gb, 0, Column))
	if p0 < 1.2 {
		t.Errorf("Parquet speedup at sel 0 = %v, want > 1.2", p0)
	}
	// Scoop below Parquet at low selectivity, above at high.
	lowS := tb_.Speedup(wl(50*gb, 0.2, Column))
	lowP := tb_.ParquetSpeedup(wl(50*gb, 0.2, Column))
	if lowS >= lowP {
		t.Errorf("at 20%%: scoop %v >= parquet %v", lowS, lowP)
	}
	hiS := tb_.Speedup(wl(50*gb, 0.9, Column))
	hiP := tb_.ParquetSpeedup(wl(50*gb, 0.9, Column))
	ratio := tb_.ParquetTime(wl(50*gb, 0.9, Column)) / tb_.PushdownTime(wl(50*gb, 0.9, Column))
	if hiS <= hiP {
		t.Errorf("at 90%%: scoop %v <= parquet %v", hiS, hiP)
	}
	if ratio < 1.5 || ratio > 3.2 {
		t.Errorf("scoop-vs-parquet at 90%% = %vx, paper ≈2.16x", ratio)
	}
	// Crossover near 60% for 50GB.
	cross50 := crossover(tb_, 50*gb)
	if cross50 < 0.4 || cross50 > 0.75 {
		t.Errorf("50GB crossover at %v, paper ≈0.6", cross50)
	}
	// Crossover moves to lower selectivity for larger datasets.
	cross3t := crossover(tb_, 3*tb)
	if cross3t > cross50 {
		t.Errorf("crossover should shrink with dataset size: 50GB=%v 3TB=%v", cross50, cross3t)
	}
}

// crossover finds the column selectivity where pushdown starts beating
// Parquet.
func crossover(tb_ Testbed, bytes float64) float64 {
	for sel := 0.0; sel <= 1.0; sel += 0.01 {
		w := wl(bytes, sel, Column)
		if tb_.PushdownTime(w) <= tb_.ParquetTime(w) {
			return sel
		}
	}
	return 1.0
}

// Paper Fig. 1: baseline time grows linearly with dataset size.
func TestBaselineLinearInSize(t *testing.T) {
	tb_ := OSIC()
	t1 := tb_.BaselineTime(wl(500*gb, 0.5, Mixed))
	t2 := tb_.BaselineTime(wl(1000*gb, 0.5, Mixed))
	t4 := tb_.BaselineTime(wl(2000*gb, 0.5, Mixed))
	// Slope constant within 10% once overheads amortize.
	slope1 := (t2 - t1) / 500
	slope2 := (t4 - t2) / 1000
	if math.Abs(slope1-slope2)/slope1 > 0.1 {
		t.Errorf("baseline not linear: slopes %v vs %v", slope1, slope2)
	}
}

// Paper §VI-A: absolute improvements at 60% mixed selectivity: ≈41s for
// 50GB and ≈2632s for 3TB.
func TestAbsoluteImprovements(t *testing.T) {
	tb_ := OSIC()
	d50 := tb_.BaselineTime(wl(50*gb, 0.6, Mixed)) - tb_.PushdownTime(wl(50*gb, 0.6, Mixed))
	d3t := tb_.BaselineTime(wl(3*tb, 0.6, Mixed)) - tb_.PushdownTime(wl(3*tb, 0.6, Mixed))
	if d50 < 15 || d50 > 80 {
		t.Errorf("50GB absolute gain = %vs, paper ≈41s", d50)
	}
	if d3t < 1300 || d3t > 4000 {
		t.Errorf("3TB absolute gain = %vs, paper ≈2632s", d3t)
	}
}

// Paper Fig. 9/10 shapes.
func TestResourceUsage(t *testing.T) {
	tb_ := OSIC()
	w := wl(3*tb, 0.99, Mixed) // ShowGraphHCHP-like
	base := tb_.UsageFor(w, Baseline)
	push := tb_.UsageFor(w, Pushdown)

	// (a) compute CPU: pushdown less than half the average, and a huge
	// CPU-seconds reduction (paper: 97.8%).
	if push.ComputeCPUPct >= base.ComputeCPUPct/2 {
		t.Errorf("compute CPU: push %v vs base %v", push.ComputeCPUPct, base.ComputeCPUPct)
	}
	reduction := 1 - push.ComputeCPUSeconds/base.ComputeCPUSeconds
	if reduction < 0.9 {
		t.Errorf("CPU-seconds reduction = %v, paper 0.978", reduction)
	}
	// (b) memory: pushdown peak lower, held 12-15x shorter.
	if push.ComputeMemPct >= base.ComputeMemPct {
		t.Error("pushdown memory peak should be lower")
	}
	holdRatio := base.MemHeldSeconds / push.MemHeldSeconds
	if holdRatio < 8 {
		t.Errorf("memory hold ratio = %v, paper 12-15x", holdRatio)
	}
	// (c) network: baseline saturates the LB link; pushdown a small share.
	if base.LBUtilizationPct < 85 {
		t.Errorf("baseline LB utilization = %v%%, want near saturation", base.LBUtilizationPct)
	}
	if push.LBUtilizationPct > 30 {
		t.Errorf("pushdown LB utilization = %v%%, want small", push.LBUtilizationPct)
	}
	// Fig. 10: storage CPU rises from ~1.25% to ~20-25%.
	if base.StorageCPUPct > 2 {
		t.Errorf("baseline storage CPU = %v%%", base.StorageCPUPct)
	}
	if push.StorageCPUPct < 15 || push.StorageCPUPct > 30 {
		t.Errorf("pushdown storage CPU = %v%%, paper ≈23.5%%", push.StorageCPUPct)
	}
}

func TestSeries(t *testing.T) {
	tb_ := OSIC()
	w := wl(3*tb, 0.99, Mixed)
	s := tb_.Series(w, Baseline, 50)
	if len(s) != 50 {
		t.Fatalf("len = %d", len(s))
	}
	if s[0].T != 0 || s[49].T <= 0 {
		t.Errorf("time axis: %v .. %v", s[0].T, s[49].T)
	}
	// Activity then tail.
	if s[10].LBBytesPerSec == 0 {
		t.Error("no activity mid-run")
	}
	if s[49].LBBytesPerSec != 0 {
		t.Error("network should be quiet in the tail")
	}
	if got := tb_.Series(w, Pushdown, 1); len(got) != 2 {
		t.Errorf("minimum samples: %d", len(got))
	}
}

func TestWorkloadValidate(t *testing.T) {
	if err := (Workload{}).Validate(); err == nil {
		t.Error("zero dataset accepted")
	}
	if err := wl(1, -0.1, Row).Validate(); err == nil {
		t.Error("negative selectivity accepted")
	}
	if err := wl(1, 1.1, Row).Validate(); err == nil {
		t.Error("selectivity > 1 accepted")
	}
	if err := wl(gb, 0.5, Row).Validate(); err != nil {
		t.Error(err)
	}
}

func TestSelectivityTypeString(t *testing.T) {
	if Row.String() != "row" || Column.String() != "column" || Mixed.String() != "mixed" {
		t.Error("type names")
	}
}

// The GridPocket query table (Fig. 7): with >90% data selectivity on the
// small dataset, speedups land in the paper's 4.1–18.7 range.
func TestGridPocketRange(t *testing.T) {
	tb_ := OSIC()
	lo := tb_.Speedup(wl(50*gb, 0.92, Mixed))
	hi := tb_.Speedup(wl(50*gb, 0.9999, Mixed))
	if lo < 3 || lo > 12 {
		t.Errorf("S_Q(50GB, 92%%) = %v, paper ≈4-7", lo)
	}
	if hi < 10 || hi > 25 {
		t.Errorf("S_Q(50GB, 99.99%%) = %v, paper ≈18.7", hi)
	}
	if hi <= lo {
		t.Error("ordering")
	}
}
