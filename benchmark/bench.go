package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"time"
)

// metricValue is one measured metric with the number of samples behind it.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// record is the outcome of one run of one workload, gated or traced. With
// -out, records are appended to a file one JSON object per line; -compare
// reads such files.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Trace      int                    `json:"trace"`
	Correct    bool                   `json:"correct"`
	Attempted  int                    `json:"attempted"`
	Failed     int                    `json:"failed"`
	Overloaded bool                   `json:"overloaded,omitempty"`
	Offered    float64                `json:"offered_rps,omitempty"`
	Metrics    map[string]metricValue `json:"metrics"`
}

func (rec *record) set(defs []metricDef, name string, value float64, samples int) {
	d := findMetric(defs, name)
	if d == nil {
		panic("benchmark: metric " + name + " is not in the registry")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	rec.Metrics[name] = metricValue{Value: value, Unit: d.Unit, Samples: samples}
}

// layer sets a per-layer metric.
func (rec *record) layer(name string, value float64, samples int) {
	rec.set(perLayerMetrics, name, value, samples)
}

// print writes the record as `workload metric value unit n=samples` lines in
// registry order.
func (rec *record) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if m, ok := rec.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-16s %-30s %14.4f %-6s n=%d\n", rec.Workload, d.Name, m.Value, m.Unit, m.Samples)
		}
	}
	status := "ok"
	if rec.Overloaded {
		status = "overloaded"
	}
	fmt.Fprintf(w, "%-16s %-30s attempted=%d failed=%d correct=%v\n", rec.Workload, status, rec.Attempted, rec.Failed, rec.Correct)
}

// resultLine is the last line of standard output: exactly these keys.
func (rec *record) resultLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(rec.Metrics))
	for name, m := range rec.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	return string(mustJSON(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, metrics}))
}

// warmSeconds of closed-loop traffic run before anything is measured, after
// the workload's own preload: connections open, server heaps and LRU caches
// reach the state steady traffic leaves them in.
const warmSeconds = 1.0

// setUpAndWarm runs the unmeasured part shared by the gated and traced runs:
// p.setups timed set-ups (the last one stays up), preload and warm-up.
// It returns the set-up times in seconds.
func (r *run) setUpAndWarm() ([]float64, error) {
	var setups []float64
	for i := 0; i < r.p.setups; i++ {
		if r.fleet != nil {
			if err := r.fleet.stop(); err != nil {
				return nil, err
			}
			r.fleet = nil
		}
		if err := r.setUp(); err != nil {
			return nil, err
		}
		setups = append(setups, r.fleet.setup.Seconds())
	}
	if r.wl.preload != nil {
		if err := r.wl.preload(r); err != nil {
			return nil, err
		}
	}
	warm := r.closedPhase(time.Duration(warmSeconds * r.p.seconds / runSeconds * float64(time.Second)))
	if warm.failed > 0 {
		return nil, fmt.Errorf("%s: %d of %d warm-up requests failed", r.wl.name, warm.failed, warm.attempted)
	}
	return setups, nil
}

// runGated measures the end-to-end metrics of one workload: set-up, warm-up,
// closed phase, open phase, quiesce checks.
func runGated(ctx context.Context, env *environment, wl *workload, p params) (rec *record, err error) {
	r, err := newRun(ctx, env, wl, p)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, r.close()) }()
	if err := r.prepare(); err != nil {
		return nil, err
	}
	setups, err := r.setUpAndWarm()
	if err != nil {
		return nil, err
	}
	measured := time.Duration(p.seconds * float64(time.Second))
	closed := r.closedPhase(measured / 3)
	open := r.openPhase(measured-measured/3, wl.rate, 0)
	rss, err := r.fleet.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if wl.quiesce != nil {
		if err := wl.quiesce(r); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rec = &record{Workload: wl.name, Seed: p.seed, Offered: wl.rate, Metrics: make(map[string]metricValue)}
	rec.Attempted = closed.attempted + open.attempted
	rec.Failed = closed.failed + open.failed + r.wrong
	rec.Correct = closed.wrong+open.wrong+r.wrong == 0
	rec.Overloaded = open.achievedRatio() < 0.95
	rec.set(endToEndMetrics, "setup_s", median(setups), len(setups))
	// Answers per second, by the instant each answer arrived.
	capacity, n := closed.sliceMedian(measured/3, func(sample) bool { return true },
		func(s sample) time.Duration { return s.sent + time.Duration(s.service*float64(time.Millisecond)) },
		func(part []sample, width time.Duration) float64 { return float64(len(part)) / width.Seconds() })
	rec.set(endToEndMetrics, "capacity_rps", capacity, n)
	due := func(s sample) time.Duration { return s.due }
	p50, n := open.sliceMedian(measured-measured/3, isRead, due, latencyPercentile(50))
	rec.set(endToEndMetrics, "query_p50_ms", p50, n)
	p99, n := open.sliceMedian(measured-measured/3, isRead, due, latencyPercentile(99))
	rec.set(endToEndMetrics, "query_p99_ms", p99, n)
	rec.set(endToEndMetrics, "peak_rss_mb", rss, len(r.fleet.procs))
	return rec, nil
}
