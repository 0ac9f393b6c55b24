package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"prefsky/internal/adaptive"
	"prefsky/internal/cluster"
	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/durable"
	"prefsky/internal/flat"
	"prefsky/internal/ipotree"
	"prefsky/internal/order"
	"prefsky/internal/parallel"
	"prefsky/internal/service"
)

// Sample sizes of the in-process probes: enough calls for a steady median,
// few enough that the traced run takes about as long as the gated one.
const (
	kernelPrefs   = 32  // preferences the flat and parallel kernels are timed on
	enginePrefs   = 64  // preferences IPO-tree and Adaptive SFS are timed on
	writeProbes   = 200 // store and WAL writes timed
	overheadReqs  = 100 // requests replayed with spans off and on for trace.overhead_ratio
	cacheGetCalls = 200
)

// tracedRequests are the stream entries the traced run measures: the
// traceLen requests after warm-up.
func (r *run) tracedRequests(warmed int) []request {
	out := make([]request, r.p.traceLen)
	for i := range out {
		out[i] = r.stream[(warmed+i)%len(r.stream)]
	}
	return out
}

// sampledPrefs returns the first n distinct preferences the traced requests
// query, canonical as the engines receive them.
func (r *run) sampledPrefs(warmed, n int) []*order.Preference {
	var out []*order.Preference
	seen := make(map[int32]bool)
	for _, req := range r.tracedRequests(warmed) {
		if req.kind == opQuery && !seen[req.idx] && len(out) < n {
			seen[req.idx] = true
			out = append(out, r.prefs[req.idx].pref.Canonical())
		}
	}
	return out
}

// probeLayers is the in-process part of the traced run.
func (r *run) probeLayers(tr *tracer, rec *record, warmed int) error {

	// internal/data
	f, err := os.Open(r.csvPath)
	if err != nil {
		return err
	}
	id := tr.begin("data.read_csv", -1, -1)
	_, err = data.ReadCSV(f, r.schema)
	tr.end(id)
	f.Close()
	if err != nil {
		return err
	}
	rec.layer("data.read_csv_s", tr.us("data.read_csv")[0]/1e6, 1)

	if err := r.replayService(tr, rec, warmed); err != nil {
		return err
	}
	tr.p50(rec, "edge.parse_pref_us", "edge.parse_pref")
	tr.p50(rec, "order.canonical_us", "order.canonical")
	tr.p50(rec, "service.exact_us", "service.exact")
	tr.p50(rec, "service.semantic_us", "service.semantic")
	tr.p50(rec, "service.engine_us", "service.engine")
	tr.p50(rec, "service.cache_get_us", "service.cache_get")

	kernel := r.sampledPrefs(warmed, kernelPrefs)
	if err := r.probeFlatRead(tr, rec, kernel); err != nil {
		return err
	}
	tr.p50(rec, "flat.project_us", "flat.project")
	tr.p50(rec, "flat.presort_us", "flat.presort")
	tr.p50(rec, "flat.candidates_us", "flat.candidates")

	if r.model != nil {
		if err := r.probeWrites(tr); err != nil {
			return err
		}
		tr.p50(rec, "flat.insert_us", "flat.insert")
		tr.p50(rec, "flat.delete_us", "flat.delete")
		if d := tr.us("flat.compact"); len(d) > 0 {
			rec.layer("flat.compact_ms", percentile(d, 50)/1e3, len(d))
		}
		tr.p50(rec, "durable.append_us", "durable.append")
		tr.p50(rec, "durable.sync_us", "durable.sync")
		if d := tr.us("durable.checkpoint"); len(d) > 0 {
			rec.layer("durable.checkpoint_ms", percentile(d, 50)/1e3, len(d))
		}
	}
	if r.wl.node.engine == "hybrid" {
		if err := r.probeEngines(tr, rec, r.sampledPrefs(warmed, enginePrefs)); err != nil {
			return err
		}
		tr.p50(rec, "ipotree.query_us", "ipotree.query")
		tr.p50(rec, "adaptive.query_us", "adaptive.query")
	}
	if r.wl.cluster {
		if err := r.probeMerge(tr, rec, kernel); err != nil {
			return err
		}
		tr.p50(rec, "parallel.skyline_us", "parallel.skyline")
		tr.p50(rec, "parallel.merge_us", "parallel.merge")
	}
	return nil
}

// replayService answers the traced requests with an in-process
// service.Service configured like the workload's servers, after the same
// preload and warm-up, one span per layer call.
func (r *run) replayService(tr *tracer, rec *record, warmed int) error {
	opts, cfg := r.wl.node.service(r)
	svc := service.New(opts)
	defer svc.Close() // memory-only: nothing to flush
	if err := svc.AddDataset(datasetName, r.ds, cfg); err != nil {
		return err
	}

	// Writes of the replay target the in-process store: its own ids.
	var pending []data.PointID
	insert := func(idx int32) error {
		e := r.inserts[int(idx)%len(r.inserts)]
		ids, err := svc.InsertBatch(datasetName, []service.PointInput{{Num: e.point.Num, Nom: e.point.Nom}})
		pending = append(pending, ids...)
		return err
	}
	answer := func(t *tracer, i int, req request) error {
		root := t.begin("request", i, -1)
		defer t.end(root)
		switch req.kind {
		case opInsert:
			id := t.begin("service.insert", i, root)
			defer t.end(id)
			return insert(req.idx)
		case opDelete:
			id := t.begin("service.delete", i, root)
			defer t.end(id)
			_, err := svc.DeleteBatch(datasetName, pending[:1])
			pending = pending[1:]
			return err
		}
		pe := r.prefs[req.idx]
		id := t.begin("edge.parse_pref", i, root)
		pref, err := data.ParsePreference(r.schema, pe.spec)
		t.end(id)
		if err != nil {
			return err
		}
		id = t.begin("order.canonical", i, root)
		_ = pref.Canonical().CacheKey()
		t.end(id)
		id = t.begin("service.query", i, root)
		ids, outcome, err := svc.Query(r.ctx, datasetName, pref)
		t.end(id)
		t.rename(id, "service."+outcome.String())
		if err != nil {
			return err
		}
		if r.model == nil && !slices.Equal(ids, pe.want) {
			r.wrong++
			r.note("in-process service: wrong answer for %q", pe.spec)
		}
		return nil
	}

	off := &tracer{}
	if r.model != nil {
		for i := len(r.inserts) - mixedPreInserted; i < len(r.inserts); i++ {
			if err := insert(int32(i)); err != nil {
				return err
			}
		}
	}
	if len(r.chains) > 0 {
		var prefs []*order.Preference
		for _, pi := range r.preloaded() {
			prefs = append(prefs, r.prefs[pi].pref)
		}
		for _, res := range svc.Batch(r.ctx, datasetName, prefs) {
			if res.Err != nil {
				return res.Err
			}
		}
	}
	if r.wl.node.cache >= 0 { // with the cache off the warm-up leaves no state behind
		for i := 0; i < warmed; i++ {
			if err := answer(off, -1, r.stream[i%len(r.stream)]); err != nil {
				return err
			}
		}
	}

	reqs := r.tracedRequests(warmed)
	coarser := 0.0
	queries := 0
	for i, req := range reqs {
		if err := answer(tr, i, req); err != nil {
			return err
		}
		if req.kind == opQuery {
			coarser += float64(len(r.prefs[req.idx].pref.Canonical().CoarserKeys(0)))
			queries++
		}
	}
	rec.layer("order.coarser_keys", ratio(coarser, float64(queries)), queries)

	// service.Cache on its own: a lookup of a key the replay left cached (or,
	// with the cache off, the miss every lookup is).
	state, err := svc.Registry().State(datasetName)
	if err != nil {
		return err
	}
	key := service.CacheKey(datasetName, state, r.template.Canonical().CacheKey())
	for i := 0; i < cacheGetCalls; i++ {
		id := tr.begin("service.cache_get", -1, -1)
		svc.Cache().Get(key)
		tr.end(id)
	}

	// The cost of tracing itself: the same queries with spans off, then on,
	// after a pass that leaves both the same cache to hit.
	timed := func(t *tracer) (time.Duration, error) {
		t0 := time.Now()
		for i, req := range reqs[:min(overheadReqs, len(reqs))] {
			if req.kind != opQuery {
				continue
			}
			if err := answer(t, i, req); err != nil {
				return 0, err
			}
		}
		return time.Since(t0), nil
	}
	if _, err := timed(off); err != nil {
		return err
	}
	without, err := timed(off)
	if err != nil {
		return err
	}
	with, err := timed(newTracer())
	if err != nil {
		return err
	}
	rec.layer("trace.overhead_ratio", ratio(with.Seconds(), without.Seconds()), overheadReqs)
	return nil
}

// probeFlatRead times the stages of a cold query in internal/flat on the
// sampled preferences, and the candidate-restricted and batch paths.
func (r *run) probeFlatRead(tr *tracer, rec *record, prefs []*order.Preference) error {
	snap := flat.NewStore(r.ds, 0).Snapshot()
	rec.layer("flat.block_mb", float64(snap.SizeBytes())/(1<<20), 1)
	candRows := make([]int32, 0, len(r.oracle.cand.points))
	for _, p := range r.oracle.cand.points {
		if row, ok := snap.RowOf(p.ID); ok {
			candRows = append(candRows, row)
		}
	}
	local := make([]int32, len(candRows))
	for i := range local {
		local[i] = int32(i)
	}
	rows := 0.0
	var scans []float64
	for i, pref := range prefs {
		cmp, err := dominance.NewComparator(r.schema, pref)
		if err != nil {
			return err
		}
		root := tr.begin("flat.query", i, -1)
		id := tr.begin("flat.project", i, root)
		proj, err := snap.Project(cmp)
		tr.end(id)
		if err != nil {
			return err
		}
		id = tr.begin("flat.presort", i, root)
		proj.SortedRows(0, proj.N())
		tr.end(id)
		// SkylineRangeCtx presorts again unless the block still caches this
		// preference's permutation (it keeps the first few it sees). Timing a
		// second presort tells which, so the scan alone is the difference.
		again := tr.begin("flat.presort_again", i, root)
		proj.SortedRows(0, proj.N())
		tr.end(again)
		id = tr.begin("flat.skyline_range", i, root)
		sky, err := proj.SkylineRangeCtx(r.ctx, 0, proj.N())
		tr.end(id)
		tr.end(root)
		if err != nil {
			return err
		}
		scans = append(scans, float64(tr.spans[id].End-tr.spans[id].Start-(tr.spans[again].End-tr.spans[again].Start))/1e3)
		rows += float64(len(sky))

		id = tr.begin("flat.candidates", i, -1)
		cproj, err := snap.ProjectRows(cmp, candRows)
		if err == nil {
			_, err = cproj.SkylineOf(r.ctx, local)
		}
		tr.end(id)
		if err != nil {
			return err
		}
	}
	rec.layer("flat.skyline_rows", ratio(rows, float64(len(prefs))), len(prefs))
	rec.layer("flat.scan_us", percentile(scans, 50), len(scans))

	var perMember []float64
	for lo := 0; lo+16 <= len(prefs); lo += 16 {
		id := tr.begin("flat.batch16", -1, -1)
		_, err := snap.SkylineBatch(r.ctx, prefs[lo:lo+16], flat.GridAuto)
		tr.end(id)
		if errors.Is(err, flat.ErrBatchWindow) {
			// The members share too little for one scan; the service would
			// answer them one by one, which flat.scan already times.
			tr.rename(id, "flat.batch16.declined")
			continue
		}
		if err != nil {
			return err
		}
	}
	for _, d := range tr.us("flat.batch16") {
		perMember = append(perMember, d/16)
	}
	rec.layer("flat.batch_member_us", percentile(perMember, 50), len(perMember))
	return nil
}

// probeWrites times the write side: internal/flat on a plain store, and
// internal/durable's WAL append, sync and checkpoint on a directory of its
// own, under the policy the servers run.
func (r *run) probeWrites(tr *tracer) error {
	st := flat.NewStore(r.ds, -1) // compaction only when asked
	db, err := durable.Open(r.ds, durable.Config{
		Dir: filepath.Join(r.dir, "wal-probe"), Fsync: durable.FsyncGroup, CompactThreshold: -1,
	})
	if err != nil {
		return err
	}
	defer db.Close() // the directory is removed with the run; nothing to keep
	for round := 0; round < 3; round++ {
		var ids []data.PointID
		for i := 0; i < writeProbes; i++ {
			p := r.inserts[(round*writeProbes+i)%len(r.inserts)].point
			id := tr.begin("flat.insert", -1, -1)
			pid, err := st.Insert(p.Num, p.Nom)
			tr.end(id)
			if err != nil {
				return err
			}
			ids = append(ids, pid)
			id = tr.begin("durable.append", -1, -1)
			_, err = db.Store().Insert(p.Num, p.Nom)
			tr.end(id)
			if err != nil {
				return err
			}
			if i%50 == 49 {
				id = tr.begin("durable.sync", -1, -1)
				err = db.Sync()
				tr.end(id)
				if err != nil {
					return err
				}
			}
		}
		for _, pid := range ids[:writeProbes/2] {
			id := tr.begin("flat.delete", -1, -1)
			err := st.Delete(pid)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		id := tr.begin("flat.compact", -1, -1)
		st.Compact()
		tr.end(id)
		id = tr.begin("durable.checkpoint", -1, -1)
		err := db.Checkpoint()
		tr.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// probeEngines times the paper's two methods on their own: IPO-tree
// (top-10 values, as served) and Adaptive SFS.
func (r *run) probeEngines(tr *tracer, rec *record, prefs []*order.Preference) error {
	id := tr.begin("ipotree.build", -1, -1)
	tree, err := ipotree.Build(r.ds, r.template, ipotree.Options{TopK: r.wl.node.topK})
	tr.end(id)
	if err != nil {
		return err
	}
	rec.layer("ipotree.build_s", tr.us("ipotree.build")[0]/1e6, 1)
	rec.layer("ipotree.size_kb", float64(tree.SizeBytes())/1024, 1)
	id = tr.begin("adaptive.build", -1, -1)
	sfsa, err := adaptive.New(r.ds, r.template)
	tr.end(id)
	if err != nil {
		return err
	}
	rec.layer("adaptive.build_s", tr.us("adaptive.build")[0]/1e6, 1)
	rec.layer("adaptive.size_kb", float64(sfsa.SizeBytes())/1024, 1)
	materialized, affected := 0.0, 0.0
	for i, pref := range prefs {
		if tree.Materialized(pref) == nil {
			materialized++
			id := tr.begin("ipotree.query", i, -1)
			_, err := tree.Query(pref)
			tr.end(id)
			if err != nil {
				return err
			}
		}
		id := tr.begin("adaptive.query", i, -1)
		_, err := sfsa.Query(pref)
		tr.end(id)
		if err != nil {
			return err
		}
		affected += float64(sfsa.CountAffected(pref))
	}
	rec.layer("ipotree.hit_ratio", ratio(materialized, float64(len(prefs))), len(prefs))
	rec.layer("adaptive.affected_rows", ratio(affected, float64(len(prefs))), len(prefs))
	return nil
}

// probeMerge times internal/parallel: the partitioned skyline of the whole
// dataset, and the merge of the two shards' local skylines the coordinator
// runs for every query.
func (r *run) probeMerge(tr *tracer, rec *record, prefs []*order.Preference) error {
	id := tr.begin("cluster.split", -1, -1)
	parts, err := cluster.Split(r.ds, 2, cluster.HashPartitioner{})
	tr.end(id)
	if err != nil {
		return err
	}
	rec.layer("cluster.split_ms", tr.us("cluster.split")[0]/1e3, 1)
	blocks := make([]*flat.Block, len(parts))
	for i, part := range parts {
		if blocks[i], err = flat.FromPoints(r.schema, part); err != nil {
			return err
		}
	}
	snap := flat.NewStore(r.ds, 0).Snapshot()
	partial, final := 0.0, 0.0
	for i, pref := range prefs {
		cmp, err := dominance.NewComparator(r.schema, pref)
		if err != nil {
			return err
		}
		proj, err := snap.Project(cmp)
		if err != nil {
			return err
		}
		id := tr.begin("parallel.skyline", i, -1)
		_, err = parallel.SkylineProjected(r.ctx, proj, r.conns)
		tr.end(id)
		if err != nil {
			return err
		}
		locals := make([]parallel.Local, len(parts))
		for s, blk := range blocks {
			lp, err := blk.Project(cmp)
			if err != nil {
				return err
			}
			for _, row := range lp.SkylineRange(0, lp.N()) {
				locals[s].Points = append(locals[s].Points, r.ds.Point(lp.ID(row)))
				locals[s].Scores = append(locals[s].Scores, lp.Score(row))
			}
			partial += float64(len(locals[s].Points))
		}
		id = tr.begin("parallel.merge", i, -1)
		ids, err := parallel.MergeLocals(r.ctx, cmp, locals)
		tr.end(id)
		if err != nil {
			return err
		}
		final += float64(len(ids))
	}
	rec.layer("parallel.merge_survival_ratio", ratio(final, partial), len(prefs))
	return nil
}

// probeCluster runs while the shards are up: direct shard queries with the
// public protocol types, and a partition push from an in-process coordinator.
func (r *run) probeCluster(tr *tracer, rec *record, warmed int) error {
	var info struct {
		Datasets []cluster.DatasetStat `json:"datasets"`
	}
	if err := r.get(r.fleet.url, "/v1/datasets", &info); err != nil {
		return err
	}
	if len(info.Datasets) != 1 {
		return fmt.Errorf("coordinator hosts %d datasets, expected 1", len(info.Datasets))
	}
	shards := r.fleet.procs[:len(r.fleet.procs)-1]
	rows, wire := 0.0, 0.0
	prefs := r.sampledPrefs(warmed, kernelPrefs)
	for i, pref := range prefs {
		body := mustJSON(cluster.QueryRequest{
			Proto: cluster.ProtoVersion, Dataset: datasetName, Gen: info.Datasets[0].Gen,
			Preference: data.FormatPreference(r.schema, pref),
		})
		for _, sh := range shards {
			id := tr.begin("cluster.shard_query", i, -1)
			status, resp, err := r.post(sh.url, "/v1/shard/query", body)
			tr.end(id)
			if err != nil {
				return err
			}
			var qr cluster.QueryResponse
			if status != http.StatusOK || json.NewDecoder(bytes.NewReader(resp)).Decode(&qr) != nil {
				return fmt.Errorf("%s: shard query status %d: %.200s", sh.name, status, resp)
			}
			rows += float64(len(qr.Partial.Rows.IDs))
			wire += float64(len(resp))
		}
	}
	rec.layer("cluster.shard_p50_us", percentile(tr.us("cluster.shard_query"), 50), len(prefs)*len(shards))
	rec.layer("cluster.partial_rows", ratio(rows, float64(len(prefs))), len(prefs))
	rec.layer("cluster.wire_bytes", ratio(wire, float64(len(prefs))), len(prefs))

	specs := make([]cluster.ShardSpec, len(shards))
	for i, sh := range shards {
		specs[i] = cluster.ShardSpec{URLs: []string{sh.url}}
	}
	co, err := cluster.New(specs, cluster.Options{CacheCapacity: -1, ProbeInterval: -1})
	if err != nil {
		return err
	}
	defer co.Close()
	id := tr.begin("cluster.push", -1, -1)
	err = co.AddDataset(r.ctx, "push-probe", r.ds)
	tr.end(id)
	if err != nil {
		return err
	}
	rec.layer("cluster.push_s", tr.us("cluster.push")[0]/1e6, 1)
	return nil
}
