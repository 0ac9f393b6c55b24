package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"prefsky/internal/cluster"
	"prefsky/internal/durable"
	"prefsky/internal/flat"
	"prefsky/internal/service"
)

// span is one timed call into a layer, as written to the trace file. Spans
// of one replayed request share Request; Parent is the index, in the file's
// spans array, of the span that caused this one (-1 for a root). Start and
// End are nanoseconds since the trace began.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine; the HTTP phase's round trips are added afterwards from the load
// generator's samples.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{on: true, t0: time.Now()} }

func (t *tracer) begin(name string, request, parent int) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Request: request, Parent: parent, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.t0))
	}
}

// rename gives a span the name only its outcome decides (which path served a
// query).
func (t *tracer) rename(id int, name string) {
	if id >= 0 {
		t.spans[id].Name = name
	}
}

// us returns the durations, in microseconds, of the spans with the name.
func (t *tracer) us(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	return out
}

// p50 reports the median duration of the spans with the name as the per-layer
// metric; a name without spans leaves the metric 0.
func (t *tracer) p50(rec *record, metric, spanName string) {
	if d := t.us(spanName); len(d) > 0 {
		rec.layer(metric, percentile(d, 50), len(d))
	}
}

// traceFileJSON is the layout of benchmark/out/trace-<workload>.json.
type traceFileJSON struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(traceFileJSON{workload, seed, t.spans}); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// statsJSON decodes /v1/stats of a node, a shard or the coordinator: the
// fields either shape carries.
type statsJSON struct {
	Cache    service.CacheStats `json:"cache"`
	Shed     uint64             `json:"shed"`
	Grid     flat.GridStats     `json:"grid"`
	Datasets []struct {
		Store      *flat.StoreStats `json:"store"`
		Durability *durable.Stats   `json:"durability"`
	} `json:"datasets"`
	Shards []cluster.ShardHealth `json:"shards"`
}

// counters are the server-side counts the traced run reads before and after
// the HTTP phase: the front node's cache and admission counters, and sums
// over every process for the rest.
type counters struct {
	hits, semanticHits, misses, invalidations, shed float64
	rowsPruned                                      float64
	compactions, deltaRows, writes                  float64
	walSyncs, walBytes                              float64
	hedges, retries                                 float64
}

func (r *run) readCounters() (counters, error) {
	var c counters
	for _, p := range r.fleet.procs {
		var st statsJSON
		if err := r.get(p.url, "/v1/stats", &st); err != nil {
			return c, err
		}
		if p.url == r.fleet.url {
			c.hits, c.semanticHits = float64(st.Cache.Hits), float64(st.Cache.SemanticHits)
			c.misses, c.invalidations = float64(st.Cache.Misses), float64(st.Cache.Invalidations)
			c.shed = float64(st.Shed)
		}
		c.rowsPruned += float64(st.Grid.RowsPruned)
		for _, d := range st.Datasets {
			if d.Store != nil {
				c.compactions += float64(d.Store.Compactions)
				c.deltaRows += float64(d.Store.DeltaRows)
				c.writes += float64(d.Store.Inserts + d.Store.Deletes)
			}
			if d.Durability != nil {
				c.walSyncs += float64(d.Durability.WALSyncs)
				c.walBytes += float64(d.Durability.WALBytes)
			}
		}
		for _, sh := range st.Shards {
			c.hedges += float64(sh.Hedges)
			c.retries += float64(sh.Retries)
		}
	}
	return c, nil
}

// watchDeltaRows polls the servers' delta segment size until stop is closed
// and returns the largest value seen: compaction shrinks it between the two
// readCounters calls, so the peak has to be sampled.
func (r *run) watchDeltaRows(stop <-chan struct{}) float64 {
	peak := 0.0
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return peak
		case <-tick.C:
			if c, err := r.readCounters(); err == nil {
				peak = max(peak, c.deltaRows)
			}
		}
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced measures the per-layer metrics of one workload. The HTTP part
// sends the first traceLen requests after warm-up to real servers at the
// workload's offered rate and reads the servers' counters around them; the
// in-process part replays the same requests against the same dataset, timing
// each call into a layer's exported functions in a span.
func runTraced(ctx context.Context, env *environment, wl *workload, p params) (rec *record, err error) {
	p.setups = 1
	r, err := newRun(ctx, env, wl, p)
	if err != nil {
		return nil, err
	}
	defer func() { err = errors.Join(err, r.close()) }()
	if err := r.prepare(); err != nil {
		return nil, err
	}
	if _, err := r.setUpAndWarm(); err != nil {
		return nil, err
	}
	warmed := r.pos // the stream position the measured requests start at
	tr := newTracer()
	rec = &record{Workload: wl.name, Seed: p.seed, Offered: wl.rate, Metrics: make(map[string]metricValue)}
	for _, d := range perLayerMetrics {
		rec.layer(d.Name, 0, 0) // layers the workload does not exercise stay 0
	}

	before, err := r.readCounters()
	if err != nil {
		return nil, err
	}
	cpuBefore, err := r.fleet.cpuMS()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var deltaPeak float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		deltaPeak = r.watchDeltaRows(stop)
	}()
	phaseStart := time.Since(tr.t0)
	open := r.openPhase(time.Hour, wl.rate, p.traceLen) // the limit ends it
	close(stop)
	wg.Wait()
	cpuAfter, err := r.fleet.cpuMS()
	if err != nil {
		return nil, err
	}
	after, err := r.readCounters()
	if err != nil {
		return nil, err
	}
	classNames := map[uint8]string{classEngine: "edge.engine", classHit: "edge.hit", classSemantic: "edge.semantic", classWrite: "edge.write"}
	for _, s := range open.samples {
		start := int64(phaseStart + s.sent)
		tr.spans = append(tr.spans, span{Name: classNames[s.class], Request: s.index, Parent: -1,
			Start: start, End: start + int64(s.service*1e6)})
	}

	tr.p50(rec, "edge.hit_p50_us", "edge.hit")
	tr.p50(rec, "edge.semantic_p50_us", "edge.semantic")
	tr.p50(rec, "edge.engine_p50_us", "edge.engine")
	tr.p50(rec, "edge.write_p50_us", "edge.write")
	if d := tr.us("edge.write"); len(d) > 0 {
		rec.layer("edge.write_p99_us", percentile(d, 99), len(d))
	}
	reads := open.latencies(isRead, func(s sample) float64 { return float64(s.bytes) })
	rec.layer("edge.resp_bytes", mean(reads), len(reads))
	rec.layer("edge.shed_share", ratio(float64(open.shed), float64(open.attempted)), open.attempted)
	lookups := after.hits - before.hits + after.misses - before.misses
	rec.layer("service.exact_hit_ratio", ratio(after.hits-before.hits, lookups), int(lookups))
	rec.layer("service.semantic_hit_ratio", ratio(after.semanticHits-before.semanticHits, lookups), int(lookups))
	rec.layer("service.invalidations", after.invalidations-before.invalidations, 1)
	rec.layer("service.shed", after.shed-before.shed, 1)
	scans := after.misses - before.misses - (after.semanticHits - before.semanticHits)
	rec.layer("flat.rows_pruned_ratio", ratio(after.rowsPruned-before.rowsPruned, scans*float64(r.ds.N())), int(scans))
	rec.layer("proc.cpu_ms_per_req", ratio(cpuAfter-cpuBefore, float64(len(open.samples))), len(open.samples))
	lags := open.latencies(func(sample) bool { return true }, func(s sample) float64 { return s.lag })
	rec.layer("gen.sched_lag_p99_ms", percentile(lags, 99), len(lags))
	rec.layer("gen.achieved_rate_ratio", open.achievedRatio(), open.attempted)
	if writes := after.writes - before.writes; writes > 0 {
		rec.layer("flat.compactions", after.compactions, 1) // since the servers started: preload and warm-up write too
		rec.layer("flat.delta_rows_peak", deltaPeak, 1)
		rec.layer("durable.wal_bytes_per_row", ratio(after.walBytes-before.walBytes, writes), int(writes))
		rec.layer("durable.wal_syncs", after.walSyncs-before.walSyncs, 1)
	}
	if wl.cluster {
		rec.layer("cluster.hedges", after.hedges-before.hedges, 1)
		rec.layer("cluster.retries", after.retries-before.retries, 1)
		if err := r.probeCluster(tr, rec, warmed); err != nil {
			return nil, err
		}
	}
	if wl.quiesce != nil {
		if err := wl.quiesce(r); err != nil {
			return nil, err
		}
	}
	if r.recovery > 0 {
		rec.layer("durable.recovery_s", r.recovery.Seconds(), 1)
	}
	if err := r.fleet.stop(); err != nil {
		return nil, err
	}
	r.fleet = nil

	// The servers are gone: the in-process part has the machine to itself.
	if err := r.probeLayers(tr, rec, warmed); err != nil {
		return nil, err
	}
	httpReads := open.latencies(isRead, func(s sample) float64 { return s.service * 1e3 })
	inproc := append(append(tr.us("service.exact"), tr.us("service.semantic")...), tr.us("service.engine")...)
	rec.layer("edge.overhead_us", percentile(httpReads, 50)-percentile(inproc, 50), len(httpReads))

	rec.Attempted = open.attempted
	rec.Failed = open.failed + r.wrong
	rec.Correct = open.wrong+r.wrong == 0
	rec.Overloaded = open.achievedRatio() < 0.95
	rec.layer("failed_share", ratio(float64(rec.Failed), float64(rec.Attempted)), rec.Attempted)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	path := env.traceFile(wl.name)
	if err := tr.write(path, wl.name, p.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: %d spans written to %s\n", wl.name, len(tr.spans), path)
	return rec, nil
}
