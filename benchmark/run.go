package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"prefsky/internal/data"
	"prefsky/internal/order"
)

// environment is what every run of one benchmark invocation shares.
type environment struct {
	root   string // the checkout
	outDir string // benchmark/out: binary, temporary data, trace files
	bin    string // the built skylined
}

// params are the knobs of one run. The zero n takes the workload's own size.
type params struct {
	seed     int64
	seconds  float64 // measured time: a third closed, two thirds open
	n        int
	setups   int // set-ups timed per run; setup_s is their median
	traceLen int // requests the traced run replays
}

// run is the state of one workload run.
type run struct {
	ctx   context.Context
	env   *environment
	wl    *workload
	p     params
	dir   string       // this run's temporary directory, under env.outDir
	hc    *http.Client // the load: at most conns connections
	ctl   *http.Client // readiness and counters, so that reading them never waits for a load connection
	conns int          // generator connections: nproc
	world *rand.Rand   // draws what the deployment holds, from worldSeed
	rng   *rand.Rand   // draws the traffic, from -seed

	ds         *data.Dataset
	schema     *data.Schema
	template   *order.Preference
	schemaPath string
	csvPath    string
	oracle     *oracle

	prefs     []*prefEntry
	prefIndex map[string]int32
	chains    [][3]int32 // refine-hot: template, order-2 and order-3 preference of each chain
	stream    []request
	inserts   []insertEntry
	model     *writeModel // mixed-durable only
	dataDir   string      // mixed-durable only

	fleet    *fleet
	starts   int           // set-ups so far; names each set-up's log files
	pos      int           // next stream position; phases continue where the last one stopped
	wrong    int           // wrong answers found outside the phases' own tallies (quiesce checks)
	recovery time.Duration // mixed-durable: restart on the data directory → /readyz
	notes    atomic.Int64  // failed checks reported so far
}

func newRun(ctx context.Context, env *environment, wl *workload, p params) (*run, error) {
	if err := os.MkdirAll(env.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(env.outDir, "run-"+wl.name+"-")
	if err != nil {
		return nil, err
	}
	conns := runtime.NumCPU()
	return &run{
		ctx: ctx, env: env, wl: wl, p: p, dir: dir, conns: conns,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns, IdleConnTimeout: time.Minute,
		}},
		ctl:       &http.Client{Transport: &http.Transport{IdleConnTimeout: time.Minute}},
		world:     rand.New(rand.NewSource(worldSeed)),
		rng:       rand.New(rand.NewSource(p.seed)),
		prefIndex: make(map[string]int32),
	}, nil
}

// close stops the servers still running and removes the run's files.
func (r *run) close() error {
	var err error
	if r.fleet != nil {
		err = r.fleet.stop()
		r.fleet = nil
	}
	r.hc.CloseIdleConnections()
	r.ctl.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(r.dir))
}

// prepare makes the run's inputs from the seed and the expected answer of
// every preference.
func (r *run) prepare() error {
	if err := r.generate(); err != nil {
		return err
	}
	if err := r.wl.build(r); err != nil {
		return err
	}
	var err error
	if r.oracle, err = newOracle(r.schema, r.ds.Points(), r.template); err != nil {
		return err
	}
	// Expected answers, computed on every core: the servers are not up yet.
	var wg sync.WaitGroup
	errs := make([]error, r.conns)
	for w := 0; w < r.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(r.prefs); i += r.conns {
				if r.prefs[i].want, errs[w] = r.oracle.skylineOf(r.prefs[i].pref); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	sample := make([]*order.Preference, 0, 4)
	for i := 0; i < 4; i++ {
		sample = append(sample, r.prefs[r.rng.Intn(len(r.prefs))].pref)
	}
	return r.oracle.spotCheck(r.ds.Points(), sample)
}

// setUp starts the workload's servers.
func (r *run) setUp() error {
	f, err := r.start()
	r.starts++
	if err != nil {
		return err
	}
	r.fleet = f
	return nil
}

// Classes of a completed request, read from the response.
const (
	classEngine uint8 = iota
	classHit
	classSemantic
	classWrite
)

// outcome is what one request came to.
type outcome struct {
	ok     bool   // 2xx and, for a query on static data, the expected ids
	wrong  bool   // 2xx with other ids than expected
	shed   bool   // 503
	class  uint8  // how it was served
	bytes  int    // response body size
	detail string // why not ok
}

type queryReply struct {
	IDs      []data.PointID `json:"ids"`
	Cached   bool           `json:"cached"`
	Semantic bool           `json:"semantic"`
}

// mustJSON renders a request body. The bodies are maps of strings, finite
// numbers and slices of them, which always encode.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// post sends one JSON request and returns the status and body.
func (r *run) post(base, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodPost, base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := r.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (r *run) get(base, path string, out any) error {
	req, err := http.NewRequestWithContext(r.ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return err
	}
	resp, err := r.ctl.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// do sends one request of the stream and checks the answer.
func (r *run) do(req request) outcome {
	switch req.kind {
	case opInsert:
		return r.model.insert(r, req.idx)
	case opDelete:
		return r.model.delete(r)
	}
	pe := r.prefs[req.idx]
	var lo int32
	if r.model != nil {
		lo = r.model.acked.Load()
	}
	status, body, err := r.post(r.fleet.url, "/v1/query", pe.body)
	out := outcome{bytes: len(body)}
	switch {
	case err != nil:
		out.detail = err.Error()
		return out
	case status != http.StatusOK:
		out.shed = status == http.StatusServiceUnavailable
		out.detail = fmt.Sprintf("status %d: %s", status, body)
		return out
	}
	var reply queryReply
	if err := json.Unmarshal(body, &reply); err != nil {
		out.detail = err.Error()
		return out
	}
	switch {
	case reply.Cached:
		out.class = classHit
	case reply.Semantic:
		out.class = classSemantic
	}
	if r.model != nil {
		// The data moves under this query: the write model checks the answer
		// after the phases, against every version the query may have seen.
		r.model.read(req.idx, lo, reply.IDs)
		out.ok = true
		return out
	}
	if !slices.Equal(reply.IDs, pe.want) {
		out.wrong = true
		out.detail = fmt.Sprintf("wrong answer for %q: %d ids, expected %d", pe.spec, len(reply.IDs), len(pe.want))
		return out
	}
	out.ok = true
	return out
}

// batch answers the preferences through /v1/batch, checking every member on
// static data.
func (r *run) batch(specs []string) error {
	status, resp, err := r.post(r.fleet.url, "/v1/batch", mustJSON(map[string]any{"dataset": datasetName, "preferences": specs}))
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/batch: status %d: %s", status, resp)
	}
	var reply struct {
		Results []struct {
			IDs   []data.PointID `json:"ids"`
			Error string         `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(resp, &reply); err != nil {
		return err
	}
	if len(reply.Results) != len(specs) {
		return fmt.Errorf("/v1/batch: %d results for %d preferences", len(reply.Results), len(specs))
	}
	for i, m := range reply.Results {
		p, err := data.ParsePreference(r.schema, specs[i])
		if err != nil {
			return err
		}
		want := r.prefs[r.prefIndex[p.Canonical().CacheKey()]].want
		if m.Error != "" || !slices.Equal(m.IDs, want) {
			return fmt.Errorf("/v1/batch: wrong answer for %q: %d ids, expected %d %s", specs[i], len(m.IDs), len(want), m.Error)
		}
	}
	return nil
}

// traceFile is where the traced run of a workload writes its spans.
func (e *environment) traceFile(workload string) string {
	return filepath.Join(e.outDir, "trace-"+workload+".json")
}
