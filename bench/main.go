// Command bench is the end-to-end, per-layer Scoop benchmark. It hosts a
// storage cluster and a compute instance in one process, joins them by real
// HTTP over a rate-shaped loopback link, and drives four workloads through
// the path a real query takes, checking every result against an oracle.
//
//	bash bench/run.sh                         all workloads, untraced and traced
//	bash bench/run.sh -repeat 2               the same twice, compared to the bounds
//	bash bench/run.sh --workload wan_pushdown --seed 1 --seconds 10 --trace 0
//
// With --workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// for --trace 0, the per-layer metrics for --trace 1. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// runRecord is what a run leaves in the output directory: the result with
// the circumstances it was measured under.
type runRecord struct {
	Workload string           `json:"workload"`
	Trace    bool             `json:"trace"`
	Env      map[string]any   `json:"env"`
	Inputs   map[string]int64 `json:"inputs"`
	Ops      int64            `json:"ops"`
	WallS    float64          `json:"wall_s"`
	result
}

// environment records where and on what the numbers were taken.
func environment(ctx context.Context, o runOpts) map[string]any {
	env := map[string]any{
		"commit":     "unknown",
		"dirty":      false,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": o.procs,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"seed":       o.seed,
		"seconds":    o.seconds,
		"setups":     o.scale.setups,
	}
	// The driver's checkout is not a git repository; the commit then stays
	// "unknown".
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
		if st, err := exec.CommandContext(ctx, "git", "status", "--porcelain").Output(); err == nil {
			env["dirty"] = len(strings.TrimSpace(string(st))) > 0
		}
	}
	return env
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// runOne runs one workload once, prints its metrics by name and unit to w,
// and writes its record.
func runOne(ctx context.Context, w io.Writer, def workloadDef, o runOpts) (*result, error) {
	res, err := runWorkload(ctx, def, o)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	suffix := ""
	if o.trace {
		defs, suffix = perLayer, "-trace"
	}
	fmt.Fprintf(w, "# %s seed=%d trace=%v: %d ops in %.2fs, %d attempted, %d failed\n",
		def.name, o.seed, o.trace, res.ops, res.wall.Seconds(), res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "%-14s %-34s %16.6g %s\n", def.name, d.name, res.Metrics[d.name].Value, d.unit)
	}
	rec := runRecord{
		Workload: def.name, Trace: o.trace, Env: environment(ctx, o), Inputs: res.inputs,
		Ops: res.ops, WallS: res.wall.Seconds(), result: *res,
	}
	if err := writeJSON(filepath.Join(o.outDir, "run-"+def.name+suffix+".json"), rec); err != nil {
		return nil, err
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload untraced and traced and prints the two derived
// numbers: the measured point on the paper's speedup-versus-selectivity
// curve.
func runAll(ctx context.Context, o runOpts) (map[string]*result, error) {
	results := map[string]*result{}
	for _, def := range workloads {
		for _, trace := range []bool{false, true} {
			o.trace = trace
			res, err := runOne(ctx, os.Stdout, def, o)
			if err != nil {
				return nil, err
			}
			if !trace {
				results[def.name] = res
			}
		}
	}
	push, base := results["wan_pushdown"], results["wan_baseline"]
	speedup := base.Metrics["op_p50_ms"].Value / push.Metrics["op_p50_ms"].Value
	selectivity := 1 - push.Metrics["link_bytes_per_op"].Value/float64(push.inputs["dataset_bytes"])
	fmt.Printf("derived        %-34s %16.6g ratio (wan_baseline.op_p50_ms %.6g ms / wan_pushdown.op_p50_ms %.6g ms)\n",
		"wan_speedup", speedup, base.Metrics["op_p50_ms"].Value, push.Metrics["op_p50_ms"].Value)
	fmt.Printf("derived        %-34s %16.6g ratio (1 - wan_pushdown.link_bytes_per_op / %d dataset bytes)\n",
		"wan_data_selectivity", selectivity, push.inputs["dataset_bytes"])
	summary := map[string]any{"wan_speedup": speedup, "wan_data_selectivity": selectivity, "claim": nil}
	return results, writeJSON(filepath.Join(o.outDir, "summary.json"), summary)
}

// benchmarkSpec is BENCHMARK.json as the driver reads it. The repeatability
// check takes the bounds from it and the smoke test holds the code to it.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// specMetric is one metric of BENCHMARK.json; only end-to-end metrics have a
// bound.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// repeat runs the whole benchmark n times and holds every later set against
// the first: a metric that is worse than in the first set by more than its
// own bound fails the check.
func repeat(ctx context.Context, o runOpts, n int, specPath string) error {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("repeat: %w", err)
	}
	var sp benchmarkSpec
	if err := json.Unmarshal(data, &sp); err != nil {
		return fmt.Errorf("repeat: %s: %w", specPath, err)
	}
	var sets []map[string]*result
	for i := 0; i < n; i++ {
		fmt.Printf("# set %d of %d\n", i+1, n)
		set, err := runAll(ctx, o)
		if err != nil {
			return err
		}
		sets = append(sets, set)
	}
	outside := 0
	for i := 1; i < n; i++ {
		for _, def := range workloads {
			for _, m := range sp.EndToEnd {
				if m.Bound == nil {
					return fmt.Errorf("repeat: %s: %s has no bound", specPath, m.Name)
				}
				a := sets[0][def.name].Metrics[m.Name].Value
				b := sets[i][def.name].Metrics[m.Name].Value
				diff := math.Abs(a-b) / a
				worse := (m.Better == "lower" && b > a) || (m.Better == "higher" && b < a)
				verdict := "ok"
				if worse && diff > *m.Bound {
					verdict = "OUTSIDE"
					outside++
				}
				fmt.Printf("repeat %-14s %-28s set1=%-12.6g set%d=%-12.6g diff=%.4f bound=%.4f %s\n",
					def.name, m.Name, a, i+1, b, diff, *m.Bound, verdict)
			}
		}
	}
	if outside > 0 {
		return fmt.Errorf("repeat: %d metrics outside their bounds", outside)
	}
	return nil
}

func main() {
	var o runOpts
	workload := flag.String("workload", "", "run one workload and print its result as the last line; empty runs all four")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs and of the query order")
	flag.Float64Var(&o.seconds, "seconds", 10, "how long each run measures, in whole rounds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run (with -workload)")
	flag.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for run records, traces and the ingest data directory")
	repeats := flag.Int("repeat", 1, "run the whole benchmark this many times and compare the sets to the bounds")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition, read by -repeat for the bounds")
	flag.Parse()
	o.trace = *trace != 0
	o.procs = min(runtime.NumCPU(), 4)
	o.scale = fullScale

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, *workload, *repeats, *specPath); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		stop()
		os.Exit(1)
	}
}

func run(ctx context.Context, o runOpts, workload string, repeats int, specPath string) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	defer func() { fmt.Fprintf(os.Stderr, "bench: done in %.1fs\n", time.Since(start).Seconds()) }()
	if workload == "" {
		if repeats > 1 {
			return repeat(ctx, o, repeats, specPath)
		}
		_, err := runAll(ctx, o)
		return err
	}
	def, ok := findWorkload(workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	res, err := runOne(ctx, os.Stdout, def, o)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
