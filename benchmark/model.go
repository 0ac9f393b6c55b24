package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/skyline"
)

// writeModel is the benchmark's own record of mixed-durable's data. Writes go
// out one at a time (mu), so the order in which the server applied them is
// the order of log. A query overlaps at most the writes between the last one
// acknowledged before it was sent and the last one started before its answer
// arrived; verify accepts the skyline of any of those versions and nothing
// else. All checking happens after the measured phases, so the generator
// spends no time on it while it measures.
type writeModel struct {
	mu      sync.Mutex // one write in flight; guards log, pending and deleted
	started atomic.Int32
	acked   atomic.Int32
	log     []writeRec
	pending []data.PointID // inserted by the run and not yet deleted, oldest first
	deleted []data.PointID

	readMu sync.Mutex
	reads  []readRec

	final [][]data.PointID // expected ids per preference after the last write; set by verify
}

// writeRec is one acknowledged write.
type writeRec struct {
	insert bool
	point  data.Point   // insert: the point under its server-assigned id
	id     data.PointID // delete
}

// readRec is one answered query: the versions it may have seen and a hash of
// the ids it returned.
type readRec struct {
	pref   int32
	lo, hi int32
	hash   uint64
}

func hashIDs(ids []data.PointID) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, id := range ids {
		b[0], b[1], b[2], b[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func (m *writeModel) read(pref, lo int32, ids []data.PointID) {
	rec := readRec{pref: pref, lo: lo, hi: m.started.Load(), hash: hashIDs(ids)}
	m.readMu.Lock()
	m.reads = append(m.reads, rec)
	m.readMu.Unlock()
}

// insert sends generated point idx through /v1/insert and records the id the
// server gave it.
func (m *writeModel) insert(r *run, idx int32) outcome {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := r.inserts[int(idx)%len(r.inserts)]
	m.started.Add(1)
	status, body, err := r.post(r.fleet.url, "/v1/insert", e.body)
	out := outcome{class: classWrite, bytes: len(body)}
	if err == nil && status != http.StatusOK {
		out.shed = status == http.StatusServiceUnavailable
		err = fmt.Errorf("insert: status %d: %s", status, body)
	}
	var reply struct {
		IDs []data.PointID `json:"ids"`
	}
	if err == nil {
		err = json.Unmarshal(body, &reply)
	}
	if err == nil && len(reply.IDs) != 1 {
		err = fmt.Errorf("insert: %d ids for one point", len(reply.IDs))
	}
	if err != nil {
		m.started.Add(-1) // not applied as far as the model knows
		out.detail = err.Error()
		return out
	}
	p := e.point
	p.ID = reply.IDs[0]
	m.log = append(m.log, writeRec{insert: true, point: p})
	m.pending = append(m.pending, p.ID)
	m.acked.Add(1)
	out.ok = true
	return out
}

// delete removes the oldest point the run inserted.
func (m *writeModel) delete(r *run) outcome {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := outcome{class: classWrite}
	if len(m.pending) == 0 {
		out.detail = "delete: no inserted point left"
		return out
	}
	id := m.pending[0]
	body := mustJSON(map[string]any{"dataset": datasetName, "ids": []data.PointID{id}})
	m.started.Add(1)
	status, resp, err := r.post(r.fleet.url, "/v1/delete", body)
	out.bytes = len(resp)
	if err == nil && status != http.StatusOK {
		out.shed = status == http.StatusServiceUnavailable
		err = fmt.Errorf("delete %d: status %d: %s", id, status, resp)
	}
	if err != nil {
		m.started.Add(-1)
		out.detail = err.Error()
		return out
	}
	m.pending = m.pending[1:]
	m.deleted = append(m.deleted, id)
	m.log = append(m.log, writeRec{id: id})
	m.acked.Add(1)
	out.ok = true
	return out
}

// verify replays the write log over the seed data and counts the queries
// whose answer matches no version they could have seen. The template skyline
// is maintained incrementally: an insert dominated under the template changes
// no skyline, and only the delete of a template-skyline point needs
// skyline.SFS over all live points again.
func (m *writeModel) verify(r *run) (wrong int, err error) {
	tc, err := dominance.NewComparator(r.schema, r.template)
	if err != nil {
		return 0, err
	}
	cmps := make([]*dominance.Comparator, len(r.prefs))
	for i, pe := range r.prefs {
		if cmps[i], err = dominance.NewComparator(r.schema, pe.pref); err != nil {
			return 0, err
		}
	}
	cand := slices.Clone(r.oracle.cand.points)
	live := make(map[data.PointID]data.Point) // inserted by the run, not deleted
	skylines := func() ([][]data.PointID, []uint64) {
		ids := make([][]data.PointID, len(cmps))
		hashes := make([]uint64, len(cmps))
		cs := newCandidates(cand)
		for i, c := range cmps {
			ids[i] = cs.skyline(c)
			hashes[i] = hashIDs(ids[i])
		}
		return ids, hashes
	}
	ids, cur := skylines()
	versions := [][]uint64{cur} // versions[v]: hash per preference after v writes
	for _, w := range m.log {
		changed := false
		if w.insert {
			live[w.point.ID] = w.point
			if !slices.ContainsFunc(cand, func(t data.Point) bool { return tc.Dominates(&t, &w.point) }) {
				cand = slices.DeleteFunc(cand, func(t data.Point) bool { return tc.Dominates(&w.point, &t) })
				cand = append(cand, w.point)
				changed = true
			}
		} else {
			delete(live, w.id)
			if slices.ContainsFunc(cand, func(t data.Point) bool { return t.ID == w.id }) {
				points := slices.Clone(r.ds.Points())
				for _, p := range live {
					points = append(points, p)
				}
				// skyline.Filter indexes by id, which holds for the seed data only.
				sky := skyline.SFS(points, tc)
				cand = cand[:0]
				for _, p := range points {
					if _, ok := slices.BinarySearch(sky, p.ID); ok {
						cand = append(cand, p)
					}
				}
				changed = true
			}
		}
		if changed {
			ids, cur = skylines()
		}
		versions = append(versions, cur)
	}
	m.final = ids
	last := int32(len(versions) - 1)
	for _, rd := range m.reads {
		ok := false
		for v := rd.lo; v <= min(rd.hi, last) && !ok; v++ {
			ok = versions[v][rd.pref] == rd.hash
		}
		if !ok {
			wrong++
		}
	}
	return wrong, nil
}

// quiesceMixed checks the write model against the answers of the measured
// phases, then restarts the server on its data directory and checks that
// every acknowledged write survived: the hot preferences answer as the model
// says, every point still inserted can be deleted, and every deleted point is
// gone.
func quiesceMixed(r *run) error {
	m := r.model
	wrong, err := m.verify(r)
	if err != nil {
		return err
	}
	r.wrong += wrong
	if err := r.fleet.stop(); err != nil {
		return err
	}
	t0 := time.Now()
	if r.fleet, err = r.startNode(r.wl.node.args(r)...); err != nil {
		return err
	}
	r.starts++
	r.recovery = time.Since(t0)

	for i, pe := range r.prefs {
		status, body, err := r.post(r.fleet.url, "/v1/query", pe.body)
		if err != nil {
			return err
		}
		var reply queryReply
		if status != http.StatusOK || json.Unmarshal(body, &reply) != nil || !slices.Equal(reply.IDs, m.final[i]) {
			r.wrong++
			r.note("after restart: wrong answer for %q (status %d, %d ids, expected %d)", pe.spec, status, len(reply.IDs), len(m.final[i]))
		}
	}
	for _, id := range m.deleted {
		body := mustJSON(map[string]any{"dataset": datasetName, "ids": []data.PointID{id}})
		status, _, err := r.post(r.fleet.url, "/v1/delete", body)
		if err != nil {
			return err
		}
		if status != http.StatusNotFound {
			r.wrong++
			r.note("after restart: deleted point %d is back (delete answered %d)", id, status)
		}
	}
	for len(m.pending) > 0 {
		n := min(len(m.pending), 512)
		body := mustJSON(map[string]any{"dataset": datasetName, "ids": m.pending[:n]})
		status, resp, err := r.post(r.fleet.url, "/v1/delete", body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			r.wrong++
			r.note("after restart: an acknowledged insert is missing: status %d: %s", status, resp)
		}
		m.pending = m.pending[n:]
	}
	var info struct {
		Datasets []struct {
			Points int `json:"points"`
		} `json:"datasets"`
	}
	if err := r.get(r.fleet.url, "/v1/datasets", &info); err != nil {
		return err
	}
	if len(info.Datasets) != 1 || info.Datasets[0].Points != r.ds.N() {
		r.wrong++
		r.note("after restart: %+v live points, expected %d", info.Datasets, r.ds.N())
	}
	return nil
}
