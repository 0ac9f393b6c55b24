package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/order"
	"prefsky/internal/parallel"
	"prefsky/internal/service"
	"prefsky/internal/skyline"
)

// FailPolicy selects what a query does when a shard cannot answer.
type FailPolicy int8

const (
	// FailStrict (the default) fails the query with ErrShardUnavailable.
	FailStrict FailPolicy = iota
	// FailLenient merges the partials of the shards that answered and flags
	// the result: it is exactly SKY(live data) — a superset of the true
	// skyline restricted to live points (the extra members are dominated
	// only by rows on the unreachable shards).
	FailLenient
)

// ParseFailPolicy resolves a per-request policy name; "" means strict.
func ParseFailPolicy(s string) (FailPolicy, error) {
	switch s {
	case "", "fail", "strict":
		return FailStrict, nil
	case "superset", "lenient":
		return FailLenient, nil
	}
	return 0, fmt.Errorf("cluster: unknown failure policy %q (want fail or superset)", s)
}

// Options configures a Coordinator.
type Options struct {
	// Partitioner splits datasets across shards; nil means hash.
	Partitioner Partitioner
	// Client tunes the per-shard connections (timeouts, hedging, in-flight
	// bounds).
	Client ClientOptions
	// CacheCapacity / CacheShards size the coordinator's result cache
	// exactly as service.Options do.
	CacheCapacity int
	CacheShards   int
	// SemanticCandidateLimit caps the cached coarser skyline the semantic
	// path will rescan locally; 0 defaults, negative disables (as in
	// service.Options).
	SemanticCandidateLimit int
	// ProbeInterval paces the background health/repair loop; 0 means
	// DefaultProbeInterval, negative disables the loop.
	ProbeInterval time.Duration
}

// DefaultProbeInterval paces the shard health loop when unset.
const DefaultProbeInterval = 2 * time.Second

// ShardHealth is one shard's row in the coordinator's /v1/stats and
// /readyz: probe state, last error, and the client's hedge/retry counters.
type ShardHealth struct {
	Name     string `json:"name"`
	State    string `json:"state"` // ok | degraded | unreachable
	LastErr  string `json:"lastError,omitempty"`
	Hedges   uint64 `json:"hedges"`
	Retries  uint64 `json:"retries"`
	Failures uint64 `json:"failures"`
	Replicas int    `json:"replicas"`
}

// DatasetStat describes one cluster-hosted dataset.
type DatasetStat struct {
	Name        string `json:"name"`
	Points      int    `json:"points"`
	Gen         uint64 `json:"gen"`
	Partitioner string `json:"partitioner"`
	Shards      int    `json:"shards"`
}

// Stats is the coordinator-side snapshot for /v1/stats.
type Stats struct {
	Cache    service.CacheStats `json:"cache"`
	Queries  uint64             `json:"queries"`
	Batches  uint64             `json:"batches"`
	Shards   []ShardHealth      `json:"shards"`
	Datasets []DatasetStat      `json:"datasets"`
}

// Result is one coordinated query answer.
type Result struct {
	IDs     []data.PointID
	Outcome service.Outcome
	// Partial is set when a lenient query served a flagged superset;
	// Unavailable names the shards that did not contribute.
	Partial     bool
	Unavailable []string
}

// BatchResult is one member of a coordinated batch.
type BatchResult struct {
	Result
	Err error
}

// clusterDataset is the coordinator's record of one sharded dataset.
type clusterDataset struct {
	schema   *data.Schema
	gen      uint64
	stateStr string // precomputed state(): the hit path must not allocate it
	total    int
	parts    [][]data.Point // per-shard partitions, retained for re-pushes
	points   []data.Point   // id-indexed view for cache-row materialization
}

// Coordinator owns the cluster: the shard clients, the dataset→partition
// map, and a result cache shared across the exact and semantic paths so a
// cache hit never touches the network.
type Coordinator struct {
	shards   []*shardClient
	part     Partitioner
	cache    *service.Cache
	semLimit int

	mu       sync.RWMutex
	datasets map[string]*clusterDataset
	nextGen  uint64

	queries atomic.Uint64
	batches atomic.Uint64

	probeEvery time.Duration
	stop       chan struct{}
	stopped    sync.Once
	loopDone   chan struct{}

	// life is the coordinator's lifecycle context, canceled by Close: the
	// probe loop's repair passes run under it, so an in-flight re-push
	// aborts promptly at shutdown instead of detaching from cancellation.
	life     context.Context
	lifeStop context.CancelFunc
}

// New builds a coordinator over the given shard groups. It performs no I/O;
// AddDataset pushes partitions and Start launches the health loop.
func New(specs []ShardSpec, opts Options) (*Coordinator, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("cluster: no shards")
	}
	part := opts.Partitioner
	if part == nil {
		part = HashPartitioner{}
	}
	capacity := opts.CacheCapacity
	switch {
	case capacity == 0:
		capacity = 4096
	case capacity < 0:
		capacity = 0
	}
	semLimit := opts.SemanticCandidateLimit
	if semLimit == 0 {
		semLimit = service.DefaultSemanticCandidateLimit
	}
	probe := opts.ProbeInterval
	if probe == 0 {
		probe = DefaultProbeInterval
	}
	hc := &http.Client{Transport: newTransport()}
	c := &Coordinator{
		part:       part,
		cache:      service.NewCache(capacity, opts.CacheShards),
		semLimit:   semLimit,
		datasets:   make(map[string]*clusterDataset),
		nextGen:    1,
		probeEvery: probe,
		stop:       make(chan struct{}),
	}
	//lint:background lifecycle root: the probe loop outlives every request and is canceled by Close
	c.life, c.lifeStop = context.WithCancel(context.Background())
	for _, spec := range specs {
		sc, err := newShardClient(spec, hc, opts.Client)
		if err != nil {
			return nil, err
		}
		c.shards = append(c.shards, sc)
	}
	return c, nil
}

// Shards returns the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Cache exposes the coordinator's result cache (stats, tests).
func (c *Coordinator) Cache() *service.Cache { return c.cache }

// Partitioner returns the configured partitioning scheme.
func (c *Coordinator) Partitioner() Partitioner { return c.part }

// Start launches the background health/repair loop (no-op when disabled or
// already started).
func (c *Coordinator) Start() {
	if c.probeEvery <= 0 || c.loopDone != nil {
		return
	}
	c.loopDone = make(chan struct{})
	go c.probeLoop()
}

// Close stops the health loop and releases pooled connections. Safe to call
// whether or not Start ran (boot failures close a never-started coordinator).
func (c *Coordinator) Close() {
	c.stopped.Do(func() {
		close(c.stop)
		c.lifeStop()
	})
	if c.loopDone != nil {
		<-c.loopDone
	}
	if t, ok := c.shards[0].hc.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// AddDataset splits the dataset with the configured partitioner and pushes
// one partition to every shard under a fresh generation. Replacing an
// existing name bumps the generation, so cached results and shard-held
// partitions of the old data become unreachable.
func (c *Coordinator) AddDataset(ctx context.Context, name string, ds *data.Dataset) error {
	if name == "" {
		return fmt.Errorf("cluster: empty dataset name")
	}
	parts, err := Split(ds, len(c.shards), c.part)
	if err != nil {
		return err
	}
	var schemaBuf bytes.Buffer
	if err := data.WriteSchemaJSON(&schemaBuf, ds.Schema()); err != nil {
		return err
	}
	c.mu.Lock()
	gen := c.nextGen
	c.nextGen++
	cd := &clusterDataset{
		schema: ds.Schema(), gen: gen, stateStr: fmt.Sprintf("%d.0", gen),
		total: ds.N(), parts: parts, points: ds.Points(),
	}
	c.datasets[name] = cd
	c.mu.Unlock()
	c.cache.InvalidateDataset(name)

	var firstErr error
	var wg sync.WaitGroup
	var errMu sync.Mutex
	for i, sc := range c.shards {
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			if err := c.push(ctx, sc, name, cd, i); err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
			}
		}(i, sc)
	}
	wg.Wait()
	// A failed push is not fatal: the dataset is registered, the failed
	// shard is unavailable until the probe loop repairs it, and queries
	// follow the per-request failure policy meanwhile.
	return firstErr
}

// push installs one partition on one shard.
func (c *Coordinator) push(ctx context.Context, sc *shardClient, name string, cd *clusterDataset, shard int) error {
	var schemaBuf bytes.Buffer
	if err := data.WriteSchemaJSON(&schemaBuf, cd.schema); err != nil {
		return err
	}
	req := &LoadRequest{Proto: ProtoVersion, Dataset: name, Gen: cd.gen, Schema: schemaBuf.Bytes()}
	for i := range cd.parts[shard] {
		req.Rows.AppendPoint(&cd.parts[shard][i])
	}
	resp, err := sc.load(ctx, req)
	if err != nil {
		return fmt.Errorf("pushing %q to %s: %w", name, sc.name(), err)
	}
	if resp.Points != len(cd.parts[shard]) {
		return fmt.Errorf("%w: %s acknowledged %d points of %d", ErrShardProtocol, sc.name(), resp.Points, len(cd.parts[shard]))
	}
	return nil
}

// state is the dataset's cache-state token. The coordinator is the only
// writer (data changes only through AddDataset re-pushes, which bump the
// generation), so "gen.0" versions every cacheable result without any
// network validation on the hit path.
func (cd *clusterDataset) state() string { return cd.stateStr }

// lookup resolves a dataset.
func (c *Coordinator) lookup(dataset string) (*clusterDataset, error) {
	c.mu.RLock()
	cd, ok := c.datasets[dataset]
	c.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", service.ErrUnknownDataset, dataset)
	}
	return cd, nil
}

// Schema returns a dataset's schema for preference parsing.
func (c *Coordinator) Schema(dataset string) (*data.Schema, error) {
	cd, err := c.lookup(dataset)
	if err != nil {
		return nil, err
	}
	return cd.schema, nil
}

// Datasets lists the hosted datasets.
func (c *Coordinator) Datasets() []DatasetStat {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]DatasetStat, 0, len(c.datasets))
	for name, cd := range c.datasets {
		out = append(out, DatasetStat{
			Name: name, Points: cd.total, Gen: cd.gen,
			Partitioner: c.part.Name(), Shards: len(c.shards),
		})
	}
	slices.SortFunc(out, func(a, b DatasetStat) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Point materializes one point of a dataset for response rendering.
func (c *Coordinator) Point(dataset string, id data.PointID) (data.Point, error) {
	cd, err := c.lookup(dataset)
	if err != nil {
		return data.Point{}, err
	}
	if int(id) < 0 || int(id) >= len(cd.points) {
		return data.Point{}, fmt.Errorf("%w: %d", service.ErrUnknownPoint, id)
	}
	return cd.points[id], nil
}

// Query answers SKY(pref) over the sharded dataset: exact cache, then the
// semantic lattice (both network-free), then scatter-gather across all
// shards with the score-prefix merge.
func (c *Coordinator) Query(ctx context.Context, dataset string, pref *order.Preference, policy FailPolicy) (*Result, error) {
	if pref == nil {
		return nil, fmt.Errorf("cluster: nil preference")
	}
	c.queries.Add(1)
	cd, err := c.lookup(dataset)
	if err != nil {
		return nil, err
	}
	canonical := pref.Canonical()
	state := cd.state()
	key := service.CacheKey(dataset, state, canonical.CacheKey())
	if ids, ok := c.cache.Get(key); ok {
		return &Result{IDs: ids, Outcome: service.OutcomeExact}, nil
	}
	if ids, ok := c.semanticHit(cd, dataset, state, key, canonical); ok {
		return &Result{IDs: ids, Outcome: service.OutcomeSemantic}, nil
	}
	return c.scatterQuery(ctx, dataset, cd, canonical, policy)
}

// semanticHit rescans a cached coarser skyline locally: the cache stores the
// skyline's materialized points (PutRows), so by Theorem 1 the refined
// skyline is SFS over those few candidate rows — no shard round trip.
func (c *Coordinator) semanticHit(cd *clusterDataset, dataset, state, key string, canonical *order.Preference) ([]data.PointID, bool) {
	if c.semLimit < 0 {
		return nil, false
	}
	for _, ancestor := range canonical.CoarserKeys(0) {
		_, rows, ok := c.cache.ProbeRows(service.CacheKey(dataset, state, ancestor))
		if !ok || len(rows) > c.semLimit {
			continue
		}
		cmp, err := dominance.NewComparator(cd.schema, canonical)
		if err != nil {
			return nil, false
		}
		ids := skyline.SFS(rows, cmp)
		c.cache.PutRows(key, dataset, state, ids, pointsOf(rows, ids))
		c.cache.MarkSemanticHit()
		return ids, true
	}
	return nil, false
}

// pointsOf selects the points with the given ids (ids ascending, points in
// arbitrary order) for cache-row materialization.
func pointsOf(pool []data.Point, ids []data.PointID) []data.Point {
	want := make(map[data.PointID]data.Point, len(pool))
	for _, p := range pool {
		want[p.ID] = p
	}
	out := make([]data.Point, 0, len(ids))
	for _, id := range ids {
		if p, ok := want[id]; ok {
			out = append(out, p)
		}
	}
	return out
}

// gathered is the scatter phase's outcome across all shards.
type gathered struct {
	locals      []parallel.Local
	unavailable []string
	err         error // protocol/cancellation error that must fail the query
}

// scatter fans one request to every shard and collects decoded partials.
// fetch runs per shard and returns its partial (or an error).
func (c *Coordinator) scatter(ctx context.Context, cd *clusterDataset, fetch func(ctx context.Context, sc *shardClient) (*Partial, error)) gathered {
	m, l := cd.schema.NumDims(), cd.schema.NomDims()
	locals := make([]parallel.Local, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sc := range c.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			partial, err := fetch(ctx, sc)
			if err != nil {
				errs[i] = err
				return
			}
			local, err := decodePartial(partial, m, l)
			if err != nil {
				errs[i] = fmt.Errorf("%w: %s: %v", ErrShardProtocol, sc.name(), err)
				return
			}
			locals[i] = local
		}()
	}
	wg.Wait()
	g := gathered{locals: locals}
	for i, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ErrShardUnavailable):
			g.unavailable = append(g.unavailable, c.shards[i].name())
			g.locals[i] = parallel.Local{}
		default:
			// Protocol errors, version skew, cancellation: never maskable.
			if g.err == nil {
				g.err = err
			}
		}
	}
	return g
}

// decodePartial validates and decodes one shard partial into merge form.
// The score prefix must be ascending — the merge-filter's pruning contract —
// so a shard violating it is a protocol error, not a wrong-but-accepted
// answer.
func decodePartial(p *Partial, m, l int) (parallel.Local, error) {
	n := len(p.Rows.IDs)
	if len(p.Scores) != n || len(p.Rows.Num) != n*m || len(p.Rows.Nom) != n*l {
		return parallel.Local{}, fmt.Errorf("partial arrays disagree: %d ids, %d scores, %d num, %d nom", n, len(p.Scores), len(p.Rows.Num), len(p.Rows.Nom))
	}
	for i := 1; i < n; i++ {
		if p.Scores[i] < p.Scores[i-1] {
			return parallel.Local{}, fmt.Errorf("score prefix not ascending at %d", i)
		}
	}
	return parallel.Local{Points: p.Rows.PointsOf(m, l), Scores: p.Scores}, nil
}

// finish applies the failure policy and merges the gathered partials.
func (c *Coordinator) finish(ctx context.Context, dataset string, cd *clusterDataset, canonical *order.Preference, g gathered, policy FailPolicy, cacheable bool) (*Result, error) {
	if g.err != nil {
		return nil, g.err
	}
	if len(g.unavailable) > 0 {
		if policy == FailStrict {
			return nil, fmt.Errorf("%w: %d of %d shards down (%v)", ErrShardUnavailable, len(g.unavailable), len(c.shards), g.unavailable)
		}
		if len(g.unavailable) == len(c.shards) {
			return nil, fmt.Errorf("%w: all %d shards down", ErrShardUnavailable, len(c.shards))
		}
	}
	cmp, err := dominance.NewComparator(cd.schema, canonical)
	if err != nil {
		return nil, err
	}
	ids, err := parallel.MergeLocals(ctx, cmp, g.locals)
	if err != nil {
		return nil, err
	}
	res := &Result{
		IDs:     ids,
		Outcome: service.OutcomeEngine,
	}
	if len(g.unavailable) > 0 {
		res.Partial = true
		res.Unavailable = g.unavailable
		slices.Sort(res.Unavailable)
		return res, nil // a policy-dependent superset must never be cached
	}
	if cacheable {
		pool := make([]data.Point, 0, 64)
		for i := range g.locals {
			pool = append(pool, g.locals[i].Points...)
		}
		state := cd.state()
		c.cache.PutRows(service.CacheKey(dataset, state, canonical.CacheKey()), dataset, state, ids, pointsOf(pool, ids))
	}
	return res, nil
}

// scatterQuery is the cold path: every shard computes its partition's local
// skyline concurrently and the partials merge under the score-prefix window.
func (c *Coordinator) scatterQuery(ctx context.Context, dataset string, cd *clusterDataset, canonical *order.Preference, policy FailPolicy) (*Result, error) {
	prefStr := data.FormatPreference(cd.schema, canonical)
	g := c.scatter(ctx, cd, func(ctx context.Context, sc *shardClient) (*Partial, error) {
		resp, err := sc.query(ctx, &QueryRequest{Proto: ProtoVersion, Dataset: dataset, Gen: cd.gen, Preference: prefStr})
		if err != nil {
			return nil, err
		}
		return &resp.Partial, nil
	})
	return c.finish(ctx, dataset, cd, canonical, g, policy, true)
}

// Batch answers many preferences over one sharded dataset. Members dedup up
// to canonical equivalence and probe the cache first; the misses travel to
// every shard in one BatchRequest and merge per member.
func (c *Coordinator) Batch(ctx context.Context, dataset string, prefs []*order.Preference, policy FailPolicy) []BatchResult {
	c.batches.Add(1)
	out := make([]BatchResult, len(prefs))
	cd, err := c.lookup(dataset)
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	state := cd.state()

	type group struct {
		canonical *order.Preference
		members   []int
	}
	groups := make([]group, 0, len(prefs))
	byKey := make(map[string]int, len(prefs))
	for i, p := range prefs {
		if p == nil {
			out[i].Err = fmt.Errorf("cluster: nil preference")
			continue
		}
		canonical := p.Canonical()
		k := canonical.CacheKey()
		gi, seen := byKey[k]
		if !seen {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, group{canonical: canonical})
		}
		groups[gi].members = append(groups[gi].members, i)
	}
	c.queries.Add(uint64(len(groups)))

	fan := func(g group, r Result, err error) {
		for _, i := range g.members {
			out[i] = BatchResult{Result: r, Err: err}
		}
	}

	misses := make([]group, 0, len(groups))
	for _, g := range groups {
		key := service.CacheKey(dataset, state, g.canonical.CacheKey())
		if ids, ok := c.cache.Get(key); ok {
			fan(g, Result{IDs: ids, Outcome: service.OutcomeExact}, nil)
			continue
		}
		if ids, ok := c.semanticHit(cd, dataset, state, key, g.canonical); ok {
			fan(g, Result{IDs: ids, Outcome: service.OutcomeSemantic}, nil)
			continue
		}
		misses = append(misses, g)
	}
	if len(misses) == 0 {
		return out
	}

	// One scatter round trip carries every miss; per-member partials come
	// back positionally from each shard.
	prefStrs := make([]string, len(misses))
	for i, g := range misses {
		prefStrs[i] = data.FormatPreference(cd.schema, g.canonical)
	}
	responses := make([]*BatchResponse, len(c.shards))
	errs := make([]error, len(c.shards))
	var wg sync.WaitGroup
	for i, sc := range c.shards {
		wg.Add(1)
		go func(i int, sc *shardClient) {
			defer wg.Done()
			responses[i], errs[i] = sc.batch(ctx, &BatchRequest{Proto: ProtoVersion, Dataset: dataset, Gen: cd.gen, Preferences: prefStrs})
		}(i, sc)
	}
	wg.Wait()

	for mi, g := range misses {
		gth := gathered{locals: make([]parallel.Local, len(c.shards))}
		for si := range c.shards {
			switch {
			case errs[si] == nil:
				p := &responses[si].Partials[mi]
				if p.Error != "" {
					if gth.err == nil {
						gth.err = fmt.Errorf("%w: %s: member %d: %s (%s)", ErrShardProtocol, c.shards[si].name(), mi, p.Error, p.Code)
					}
					continue
				}
				local, err := decodePartial(p, cd.schema.NumDims(), cd.schema.NomDims())
				if err != nil {
					if gth.err == nil {
						gth.err = fmt.Errorf("%w: %s: %v", ErrShardProtocol, c.shards[si].name(), err)
					}
					continue
				}
				gth.locals[si] = local
			case errors.Is(errs[si], ErrShardUnavailable):
				gth.unavailable = append(gth.unavailable, c.shards[si].name())
			default:
				if gth.err == nil {
					gth.err = errs[si]
				}
			}
		}
		res, err := c.finish(ctx, dataset, cd, g.canonical, gth, policy, true)
		if err != nil {
			fan(g, Result{}, err)
			continue
		}
		fan(g, *res, nil)
	}
	return out
}

// Health reports every shard's probe state and client counters.
func (c *Coordinator) Health() []ShardHealth {
	out := make([]ShardHealth, len(c.shards))
	for i, sc := range c.shards {
		state, lastErr := sc.health()
		out[i] = ShardHealth{
			Name:     sc.name(),
			State:    state,
			LastErr:  lastErr,
			Hedges:   sc.hedges.Load(),
			Retries:  sc.retries.Load(),
			Failures: sc.failures.Load(),
			Replicas: len(sc.urls) - 1,
		}
	}
	return out
}

// Unreachable lists the shards currently probed unreachable (for /readyz).
func (c *Coordinator) Unreachable() []string {
	var out []string
	for _, sc := range c.shards {
		if state, _ := sc.health(); state == "unreachable" {
			out = append(out, sc.name())
		}
	}
	return out
}

// Stats snapshots the coordinator.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Cache:    c.cache.Stats(),
		Queries:  c.queries.Load(),
		Batches:  c.batches.Load(),
		Shards:   c.Health(),
		Datasets: c.Datasets(),
	}
}

// probeLoop periodically probes every shard's /v1/shard/info, updates
// health, and re-pushes partitions a shard lost (a restarted shard comes
// back empty and serves again as soon as its partition is re-installed).
func (c *Coordinator) probeLoop() {
	defer close(c.loopDone)
	t := time.NewTicker(c.probeEvery)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.ProbeOnce(c.life)
		}
	}
}

// ProbeOnce runs one health/repair pass: per shard, probe the primary (then
// replicas), classify ok/degraded/unreachable, and re-push any dataset the
// shard is missing or holds at a stale generation. Exported so tests and
// operators (via the probe-disabled mode) can drive repair deterministically.
func (c *Coordinator) ProbeOnce(ctx context.Context) {
	c.mu.RLock()
	want := make(map[string]*clusterDataset, len(c.datasets))
	for name, cd := range c.datasets {
		want[name] = cd
	}
	c.mu.RUnlock()

	var wg sync.WaitGroup
	for si, sc := range c.shards {
		wg.Add(1)
		go func(si int, sc *shardClient) {
			defer wg.Done()
			var info *InfoResponse
			var err error
			state := "ok"
			for ui, url := range sc.urls {
				info, err = sc.info(ctx, url)
				if err == nil {
					if ui > 0 {
						state = "degraded" // primary down, a replica answered
					}
					break
				}
			}
			if err != nil {
				sc.setHealth("unreachable", err.Error())
				return
			}
			held := make(map[string]uint64, len(info.Datasets))
			for _, d := range info.Datasets {
				held[d.Name] = d.Gen
			}
			for name, cd := range want {
				if gen, ok := held[name]; !ok || gen != cd.gen {
					if perr := c.push(ctx, sc, name, cd, si); perr != nil {
						state = "degraded"
						sc.setHealth(state, perr.Error())
						continue
					}
				}
			}
			sc.setHealth(state, "")
		}(si, sc)
	}
	wg.Wait()
}
