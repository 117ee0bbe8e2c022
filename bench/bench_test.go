package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeScale is the benchmark at a fraction of its size: the same code paths,
// a few hundred kilobytes of data.
var smokeScale = scale{
	meters: 40, interval: 48 * time.Hour,
	objects: 4, chunk: 96 << 10,
	payloads: 4, keys: 8,
	checkEvery: 2, reputEvery: 5,
	setups: 1,
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp benchmarkSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sp); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return sp
}

// TestSpecMeetsContract checks BENCHMARK.json against the limits the driver
// refuses a benchmark for.
func TestSpecMeetsContract(t *testing.T) {
	sp := readSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(sp.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range sp.Workloads {
		use(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if n := len(sp.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(sp.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range sp.EndToEnd {
		use(m.Name)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound must be in [0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range sp.PerLayer {
		use(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: per-layer metrics have no bound", m.Name)
		}
	}
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	if sp.RunSeconds < 1 || sp.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", sp.RunSeconds)
	}
}

// TestSmoke runs all four workloads, untraced and traced, at smoke scale. It
// holds BENCHMARK.json and the code together: every workload and metric the
// file names is printed exactly once with its unit, and nothing is printed
// that the file does not name. It also holds the fault-free invariants.
func TestSmoke(t *testing.T) {
	sp := readSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the code runs %d", len(sp.Workloads), len(workloads))
	}
	o := runOpts{seed: 1, seconds: 0.1, outDir: t.TempDir(), procs: 2, scale: smokeScale}
	for i, def := range workloads {
		if sp.Workloads[i].Name != def.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, sp.Workloads[i].Name, def.name)
		}
		for _, traced := range []bool{false, true} {
			o.trace = traced
			want := sp.EndToEnd
			if traced {
				want = sp.PerLayer
			}
			var out bytes.Buffer
			res, err := runOne(context.Background(), &out, def, o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", def.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", def.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			printed := map[string]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				f := strings.Fields(line)
				if len(f) != 4 || f[0] != def.name {
					continue
				}
				if _, dup := printed[f[1]]; dup {
					t.Errorf("%s: %s printed twice", def.name, f[1])
				}
				printed[f[1]] = f[3]
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || printed[m.Name] != m.Unit {
					t.Errorf("%s trace=%v: %s [%s] reported as %q, printed as %q", def.name, traced, m.Name, m.Unit, got.Unit, printed[m.Name])
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", def.name, m.Name, got.Value)
				}
				delete(printed, m.Name)
			}
			for name := range printed {
				t.Errorf("%s trace=%v: %s is printed but not in BENCHMARK.json", def.name, traced, name)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json names %d", def.name, traced, len(res.Metrics), len(want))
			}
			if !traced {
				continue
			}
			for _, name := range []string{"connector.fallbacks", "httpclient.retries", "httpclient.resumes", "proxy.failovers", "proxy.stale_skips", "storlet.errors", "node.errors", "compute.failures"} {
				if v := res.Metrics[name].Value; v != 0 {
					t.Errorf("%s: %s = %v in a fault-free run", def.name, name, v)
				}
			}
			if v := res.Metrics["trace.spans"].Value; v == 0 {
				t.Errorf("%s: the traced run recorded no span", def.name)
			}
			if _, err := os.Stat(o.outDir + "/trace-" + def.name + ".json"); err != nil {
				t.Errorf("%s: %v", def.name, err)
			}
		}
	}
}
