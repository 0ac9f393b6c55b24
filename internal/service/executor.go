package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"prefsky/internal/data"
	"prefsky/internal/order"
)

// ErrOverloaded is returned when the executor sheds a query: every worker is
// busy and the admission queue is at its cap, so parking another goroutine
// would only grow an unbounded backlog. The caller should retry after a
// backoff (skylined maps it to 503 + Retry-After).
var ErrOverloaded = errors.New("service: overloaded, query shed")

// Outcome classifies how a query was served.
type Outcome int8

const (
	// OutcomeEngine: a full engine execution (cold scan or tree query).
	OutcomeEngine Outcome = iota
	// OutcomeExact: served from the result cache — straight, or patched
	// forward from an entry cached at an older store version by one scan of
	// its ids plus the points inserted since.
	OutcomeExact
	// OutcomeSemantic: an exact-key miss answered from the refinement
	// lattice — a strictly coarser preference's skyline was cached, so by
	// Theorem 1 the flat kernel ran over those few candidate rows (plus the
	// points inserted since) instead of the whole dataset.
	OutcomeSemantic
)

func (o Outcome) String() string {
	switch o {
	case OutcomeExact:
		return "exact"
	case OutcomeSemantic:
		return "semantic"
	default:
		return "engine"
	}
}

// CacheHit reports whether the result came from the cache entry of the
// preference itself, current or patched.
func (o Outcome) CacheHit() bool { return o == OutcomeExact }

// Semantic reports whether the result was derived from a cached coarser
// skyline.
func (o Outcome) Semantic() bool { return o == OutcomeSemantic }

// DefaultSemanticCandidateLimit caps the size of a cached coarser skyline the
// semantic path will scan when the configuration leaves the limit 0.
const DefaultSemanticCandidateLimit = 4096

// QueryResult is one outcome of a batch execution.
type QueryResult struct {
	IDs     []data.PointID
	Outcome Outcome
	Err     error
}

// Executor runs queries through the result cache with a bounded worker pool:
// at most workers scans execute at once, so a traffic burst degrades to
// queueing instead of unbounded goroutine and CPU pressure. A cache entry at
// the current store version is served without a worker slot — such hits
// return immediately even under load. Every scan takes a slot: the engine's,
// the patch of an entry cached at an older version, and the candidate scan
// of a lattice (semantic) hit.
//
// Every query is context-bound: a caller whose context is canceled while
// queued for a worker slot leaves the queue immediately (a disconnected HTTP
// client stops occupying the pool), and the context reaches the engine so
// partitioned scans abort between blocks. A non-zero timeout additionally
// deadline-bounds each query from the moment it misses the cache.
//
// The queue in front of the pool is bounded: beyond maxQueued waiters, new
// scans are shed immediately with ErrOverloaded instead of parking
// goroutines without limit. Current cache hits never take a slot, so they
// stay unaffected by overload.
type Executor struct {
	reg       *Registry
	cache     *Cache
	sem       chan struct{}
	timeout   time.Duration
	semLimit  int // max candidate rows for the semantic path; < 0 disables
	maxQueued int // admission-queue cap; < 0 means unbounded

	queries atomic.Uint64
	batches atomic.Uint64
	queued  atomic.Int64
	shed    atomic.Uint64
}

// DefaultQueueFactor sizes the admission queue when the configuration leaves
// it 0: maxQueued = DefaultQueueFactor × workers.
const DefaultQueueFactor = 8

// NewExecutor builds an executor over the registry and cache. workers <= 0
// defaults to GOMAXPROCS; timeout <= 0 means no per-query deadline.
// semanticLimit caps how large a cached coarser skyline the semantic path
// will scan: 0 means DefaultSemanticCandidateLimit, negative disables the
// semantic path entirely. maxQueued bounds how many engine queries may wait
// for a worker slot before new ones are shed with ErrOverloaded: 0 means
// DefaultQueueFactor×workers, negative disables shedding (unbounded queue).
func NewExecutor(reg *Registry, cache *Cache, workers int, timeout time.Duration, semanticLimit, maxQueued int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if semanticLimit == 0 {
		semanticLimit = DefaultSemanticCandidateLimit
	}
	if maxQueued == 0 {
		maxQueued = DefaultQueueFactor * workers
	}
	return &Executor{reg: reg, cache: cache, sem: make(chan struct{}, workers), timeout: timeout, semLimit: semanticLimit, maxQueued: maxQueued}
}

// Workers returns the pool bound.
func (x *Executor) Workers() int { return cap(x.sem) }

// Timeout returns the per-query deadline (0 = none).
func (x *Executor) Timeout() time.Duration { return x.timeout }

// QueueCap returns the admission-queue bound (< 0 = unbounded).
func (x *Executor) QueueCap() int { return x.maxQueued }

// Queued returns how many engine queries are waiting for a worker slot now.
func (x *Executor) Queued() int64 { return max(x.queued.Load(), 0) }

// Shed returns how many queries were rejected with ErrOverloaded.
func (x *Executor) Shed() uint64 { return x.shed.Load() }

// acquireSlot admits one engine query to the worker pool: a free slot is
// taken immediately; otherwise the query joins the bounded admission queue,
// and if the queue is already at its cap it is shed right away with
// ErrOverloaded — the shed path never blocks. A queued caller whose context
// ends leaves with ctx.Err() and frees its queue seat.
func (x *Executor) acquireSlot(ctx context.Context) (release func(), err error) {
	select {
	case x.sem <- struct{}{}:
		return func() { <-x.sem }, nil
	default:
	}
	if x.maxQueued >= 0 {
		if x.queued.Add(1) > int64(x.maxQueued) {
			x.queued.Add(-1)
			x.shed.Add(1)
			return nil, ErrOverloaded
		}
		defer x.queued.Add(-1)
	}
	select {
	case x.sem <- struct{}{}:
		return func() { <-x.sem }, nil
	case <-ctx.Done():
		// The caller gave up while queued; its slot was never taken, so the
		// pool stays free for live requests.
		return nil, ctx.Err()
	}
}

// cacheKey names a result: dataset, its registration epoch token
// (Registry.State), and the preference up to canonical equivalence (prefKey
// is order.Preference.CacheKey of the canonical form). The dataset name —
// the only free-text component — is length-prefixed, so a name containing
// the separator byte cannot make two distinct (dataset, state, preference)
// triples encode the same key; the token and the preference key are
// separator-free by construction. The store version is not in the key: an
// entry records it, and a lookup at a newer version patches the entry.
func cacheKey(dataset, state, prefKey string) string {
	return fmt.Sprintf("%d\x1f%s\x1f%s\x1f%s", len(dataset), dataset, state, prefKey)
}

// CacheKey exposes the executor's result-cache key derivation so other query
// layers sharing a Cache (the cluster coordinator) key results identically:
// dataset, state token, and order.Preference.CacheKey of the canonical form.
func CacheKey(dataset, state, prefKey string) string {
	return cacheKey(dataset, state, prefKey)
}

// Query answers SKY(pref) over the named dataset, consulting the cache
// first — exact key, then the refinement lattice — before paying for a full
// engine execution. The returned Outcome reports which path served the
// result. The returned slice is shared with the cache; treat it as immutable.
//
// The engine executes the canonical form of the preference — the same form
// the cache keys on — so a query's outcome never depends on its spelling: a
// total order and its forced-last prefix behave identically against a top-K
// restricted tree whether or not the cache is warm.
func (x *Executor) Query(ctx context.Context, dataset string, pref *order.Preference) (ids []data.PointID, outcome Outcome, err error) {
	if pref == nil {
		return nil, OutcomeEngine, fmt.Errorf("service: nil preference")
	}
	if ctx == nil {
		//lint:background nil-ctx compatibility guard for direct library callers; HTTP callers always pass a request ctx
		ctx = context.Background()
	}
	x.queries.Add(1)
	return x.queryCanonical(ctx, dataset, pref.Canonical())
}

// withTimeout applies the per-query deadline, if one is configured.
func (x *Executor) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if x.timeout > 0 {
		return context.WithTimeout(ctx, x.timeout)
	}
	return ctx, func() {}
}

// lookup probes the exact key. A current entry — one that reflects the
// store's version now — is a hit served without a slot (current is true).
// Otherwise the stale entry, if any, is returned for the caller to patch
// under a slot, and the outcome is counted once the patch decides it.
func (x *Executor) lookup(e *dsEntry, key string) (a Answer, found, current bool) {
	a, found = x.cache.Probe(key)
	if found && a.Version == e.version() {
		x.cache.record(true)
		return a, true, true
	}
	return a, found, false
}

// cached answers a canonical preference from the cache under a held worker
// slot: the stale exact entry (found) patched forward, else the refinement
// lattice. It counts the exact outcome and reports false when the engine
// must run.
func (x *Executor) cached(ctx context.Context, e *dsEntry, key string, pref *order.Preference, stale Answer, found bool) ([]data.PointID, Outcome, bool) {
	if found {
		if a, ok, err := e.candidates(ctx, pref, stale); err == nil && ok {
			x.cache.Put(key, e.name, a)
			x.cache.record(true)
			return a.IDs, OutcomeExact, true
		}
	}
	x.cache.record(false)
	if ids, ok := x.semanticHit(ctx, e, key, pref); ok {
		return ids, OutcomeSemantic, true
	}
	return nil, OutcomeEngine, false
}

// queryCanonical is Query after canonicalization and accounting: pref must
// already be canonical and counted against the query counter. A current
// exact hit returns at once; everything else — patch, lattice scan, engine —
// runs under one worker slot and the per-query deadline.
func (x *Executor) queryCanonical(ctx context.Context, dataset string, pref *order.Preference) (ids []data.PointID, outcome Outcome, err error) {
	e, err := x.reg.entry(dataset)
	if err != nil {
		return nil, OutcomeEngine, err
	}
	key := cacheKey(dataset, e.token, pref.CacheKey())
	stale, found, current := x.lookup(e, key)
	if current {
		return stale.IDs, OutcomeExact, nil
	}
	ctx, cancel := x.withTimeout(ctx)
	defer cancel()
	release, err := x.acquireSlot(ctx)
	if err != nil {
		x.cache.record(false)
		return nil, OutcomeEngine, err
	}
	defer release()
	if ids, outcome, ok := x.cached(ctx, e, key, pref, stale, found); ok {
		return ids, outcome, nil
	}
	ids, err = x.queryEngine(ctx, e, key, pref)
	return ids, OutcomeEngine, err
}

// queryEngine runs a canonical preference that has already missed the cache
// on the dataset's engine, under a worker slot the caller holds, caching the
// result.
func (x *Executor) queryEngine(ctx context.Context, e *dsEntry, key string, pref *order.Preference) ([]data.PointID, error) {
	a, cacheable, err := e.query(ctx, pref)
	if err != nil {
		return nil, err
	}
	if cacheable {
		x.cache.Put(key, e.name, a)
	}
	return a.IDs, nil
}

// semanticHit probes the refinement lattice on an exact-key miss: if a
// strictly coarser preference's skyline is cached, Theorem 1 restricts the
// refined skyline to those candidates plus the points inserted since they
// were cached, so the flat kernel scans a few hundred rows instead of the
// whole dataset. Probes run nearest-first (the most refined cached ancestor
// has the smallest skyline); cached ancestors larger than the candidate
// limit are skipped. A served result is inserted under its own exact key,
// so the next identical query — and further refinements — hit directly.
func (x *Executor) semanticHit(ctx context.Context, e *dsEntry, key string, pref *order.Preference) ([]data.PointID, bool) {
	if x.semLimit < 0 || x.cache.Disabled() {
		// No cached ancestors can exist with the cache disabled — skip the
		// lattice enumeration instead of paying for it on every query.
		return nil, false
	}
	for _, ancestor := range pref.CoarserKeys(0) {
		cand, ok := x.cache.Probe(cacheKey(e.name, e.token, ancestor))
		if !ok || len(cand.IDs) > x.semLimit {
			continue
		}
		a, served, err := e.candidates(ctx, pref, cand)
		if err != nil || !served {
			// A member of the ancestor was deleted, or the preference or
			// context failed — all cases where the cold path must decide.
			return nil, false
		}
		x.cache.Put(key, e.name, a)
		x.cache.MarkSemanticHit()
		return a.IDs, true
	}
	return nil, false
}

// batchGroup collects the batch indices that asked for one canonically
// distinct preference: the preference is answered once and fanned back to
// every member index.
type batchGroup struct {
	pref    *order.Preference // canonical
	key     string
	stale   Answer // the exact entry cached at an older version, if found
	found   bool
	members []int
}

// Batch answers many preferences over one dataset. Members are first deduped
// up to canonical equivalence — two spellings of the same preference must
// return the same skyline, so each distinct preference is answered once and
// the result fanned back to every index that asked for it. Distinct members
// then probe the cache; current exact hits return at once, and the rest are
// answered under one worker slot and one deadline (batchScans). Misses the
// shared scan declines (flat.ErrBatchWindow) run on the engine as
// independent queries across the pool, without probing the cache again.
//
// Results are positional; each carries its own error so one bad preference
// does not fail the batch, but a canceled context fails every member still
// queued.
func (x *Executor) Batch(ctx context.Context, dataset string, prefs []*order.Preference) []QueryResult {
	x.batches.Add(1)
	if ctx == nil {
		//lint:background nil-ctx compatibility guard for direct library callers; HTTP callers always pass a request ctx
		ctx = context.Background()
	}
	out := make([]QueryResult, len(prefs))
	groups := make([]batchGroup, 0, len(prefs))
	byKey := make(map[string]int, len(prefs))
	for i, p := range prefs {
		if p == nil {
			out[i].Err = fmt.Errorf("service: nil preference")
			continue
		}
		c := p.Canonical()
		k := c.CacheKey()
		gi, seen := byKey[k]
		if !seen {
			gi = len(groups)
			byKey[k] = gi
			groups = append(groups, batchGroup{pref: c})
		}
		groups[gi].members = append(groups[gi].members, i)
	}
	if len(groups) == 0 {
		return out
	}
	x.queries.Add(uint64(len(groups)))

	// Groups have disjoint member sets, so concurrent fans never share an
	// out index.
	fan := func(g batchGroup, ids []data.PointID, oc Outcome, err error) {
		for _, i := range g.members {
			out[i] = QueryResult{IDs: ids, Outcome: oc, Err: err}
		}
	}

	e, err := x.reg.entry(dataset)
	if err != nil {
		for _, g := range groups {
			fan(g, nil, OutcomeEngine, err)
		}
		return out
	}
	pending := make([]batchGroup, 0, len(groups))
	for _, g := range groups {
		g.key = cacheKey(dataset, e.token, g.pref.CacheKey())
		a, found, current := x.lookup(e, g.key)
		if current {
			fan(g, a.IDs, OutcomeExact, nil)
			continue
		}
		g.stale, g.found = a, found
		pending = append(pending, g)
	}
	if len(pending) == 0 {
		return out
	}
	misses := x.batchScans(ctx, e, pending, fan)

	var wg sync.WaitGroup
	for _, g := range misses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := x.withTimeout(ctx)
			defer cancel()
			release, err := x.acquireSlot(ctx)
			if err != nil {
				fan(g, nil, OutcomeEngine, err)
				return
			}
			defer release()
			ids, err := x.queryEngine(ctx, e, g.key, g.pref)
			fan(g, ids, OutcomeEngine, err)
		}()
	}
	wg.Wait()
	return out
}

// batchScans answers the groups that found no current exact entry under one
// worker slot and one deadline: each group's stale entry is patched or its
// lattice scanned; a lone remaining miss runs on the engine, and two or more
// run as one shared scan (batchEngine). It returns the misses left over when
// the shared scan declines; every other group has been fanned.
func (x *Executor) batchScans(ctx context.Context, e *dsEntry, groups []batchGroup, fan func(batchGroup, []data.PointID, Outcome, error)) []batchGroup {
	ctx, cancel := x.withTimeout(ctx)
	defer cancel()
	release, err := x.acquireSlot(ctx)
	if err != nil {
		// Canceled while queued or shed at admission — nothing will serve
		// these members.
		for _, g := range groups {
			x.cache.record(false)
			fan(g, nil, OutcomeEngine, err)
		}
		return nil
	}
	defer release()
	misses := make([]batchGroup, 0, len(groups))
	for _, g := range groups {
		if ids, oc, ok := x.cached(ctx, e, g.key, g.pref, g.stale, g.found); ok {
			fan(g, ids, oc, nil)
			continue
		}
		misses = append(misses, g)
	}
	switch {
	case len(misses) == 1:
		ids, err := x.queryEngine(ctx, e, misses[0].key, misses[0].pref)
		fan(misses[0], ids, OutcomeEngine, err)
	case len(misses) > 1 && !x.batchEngine(ctx, e, misses, fan):
		return misses
	}
	return nil
}

// batchEngine answers the remaining miss groups in one vectorized pass
// under the caller's worker slot, caching each member's result exactly as
// the single-query path would. It reports false — with nothing fanned — when
// the shared scan declines or fails outright, letting the caller fall back to
// independent queries.
func (x *Executor) batchEngine(ctx context.Context, e *dsEntry, groups []batchGroup, fan func(batchGroup, []data.PointID, Outcome, error)) bool {
	run := make([]*order.Preference, len(groups))
	for i, g := range groups {
		run[i] = g.pref
	}
	items, at, ok, err := e.queryBatch(ctx, run)
	if err != nil || !ok {
		return false
	}
	for i, it := range items {
		g := groups[i]
		if it.Err != nil {
			fan(g, nil, OutcomeEngine, it.Err)
			continue
		}
		a := at
		a.IDs = it.IDs
		x.cache.Put(g.key, e.name, a)
		fan(g, it.IDs, OutcomeEngine, nil)
	}
	return true
}

// Counters returns the executed single-query and batch counts. Batch members
// count as queries after canonical dedup: B spellings of one preference in a
// batch count once.
func (x *Executor) Counters() (queries, batches uint64) {
	return x.queries.Load(), x.batches.Load()
}
