package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestRegistryMatchesBenchmarkJSON keeps the metric and workload registry in
// code and BENCHMARK.json from drifting apart.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, registry %d", file.RunSeconds, runSeconds)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the registry", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), registry %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, pair := range []struct {
		kind     string
		file, in []metricDef
	}{{"end_to_end", file.EndToEnd, endToEndMetrics}, {"per_layer", file.PerLayer, perLayerMetrics}} {
		if len(pair.file) != len(pair.in) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the registry", pair.kind, len(pair.file), len(pair.in))
			continue
		}
		for i := range pair.in {
			if pair.file[i] != pair.in[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, registry %+v", pair.kind, i, pair.file[i], pair.in[i])
			}
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkRecord(t *testing.T, rec *record, defs []metricDef) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", rec.Workload, rec.Correct, rec.Attempted, rec.Failed)
	}
	if len(rec.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d registered", rec.Workload, len(rec.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := rec.Metrics[d.Name]
		switch {
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q is not made of letters, digits, _ . -", d.Name)
		case !ok:
			t.Errorf("%s: metric %s missing", rec.Workload, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != d.Unit:
			t.Errorf("%s: metric %s = %v %s", rec.Workload, d.Name, m.Value, m.Unit)
		case d.Bound > 0 && m.Value <= 0:
			t.Errorf("%s: end-to-end metric %s = %v, must be positive", rec.Workload, d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload, gated and traced, at a fiftieth of its size
// for about a second, and checks that every registered metric comes out and
// that no server outlives the runs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	env, err := newEnvironment(ctx)
	if err != nil {
		t.Fatal(err)
	}
	p := params{seed: 1, seconds: 1.5, n: 2000, setups: 2, traceLen: 60}
	for _, wl := range workloads {
		rec, err := runGated(ctx, env, wl, p)
		if err != nil {
			t.Fatalf("%s gated: %v", wl.name, err)
		}
		checkRecord(t, rec, endToEndMetrics)
		if _, err := json.Marshal(rec); err != nil {
			t.Errorf("%s: record does not encode: %v", wl.name, err)
		}
		rec, err = runTraced(ctx, env, wl, p)
		if err != nil {
			t.Fatalf("%s traced: %v", wl.name, err)
		}
		checkRecord(t, rec, perLayerMetrics)
		var trace traceFileJSON
		b, err := os.ReadFile(env.traceFile(wl.name))
		if err != nil || json.Unmarshal(b, &trace) != nil || len(trace.Spans) == 0 {
			t.Errorf("%s: trace file unreadable or empty: %v", wl.name, err)
		}
		discriminates(t, wl, rec)
	}

	// Every skylined this test spawned runs the binary it built.
	procs, err := filepath.Glob("/proc/[0-9]*")
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range procs {
		if exe, err := os.Readlink(filepath.Join(dir, "exe")); err == nil && exe == env.bin {
			pid, _ := strconv.Atoi(filepath.Base(dir))
			t.Errorf("skylined process %d outlived the runs", pid)
		}
	}
}

// discriminates checks that a layer's metrics are non-zero only on the
// workloads that exercise it.
func discriminates(t *testing.T, wl *workload, rec *record) {
	t.Helper()
	for name, on := range map[string]bool{
		"durable.append_us":  wl.node.durable,
		"durable.wal_syncs":  wl.node.durable,
		"flat.insert_us":     wl.node.durable,
		"cluster.push_s":     wl.cluster,
		"cluster.wire_bytes": wl.cluster,
		"parallel.merge_us":  wl.cluster,
		"ipotree.build_s":    wl.node.engine == "hybrid",
		"adaptive.query_us":  wl.node.engine == "hybrid",
		"flat.scan_us":       true,
		"data.read_csv_s":    true,
		"edge.parse_pref_us": true,
	} {
		if got := rec.Metrics[name].Value != 0; got != on {
			t.Errorf("%s: %s = %v, expected non-zero: %v", wl.name, name, rec.Metrics[name].Value, on)
		}
	}
	if wl.name == "cold-scan" && rec.Metrics["service.exact_hit_ratio"].Value != 0 {
		t.Errorf("cold-scan: exact hit ratio %v with the cache off", rec.Metrics["service.exact_hit_ratio"].Value)
	}
}
