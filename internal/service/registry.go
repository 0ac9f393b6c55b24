package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"prefsky/internal/core"
	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/durable"
	"prefsky/internal/flat"
	"prefsky/internal/ipotree"
	"prefsky/internal/order"
)

// Errors returned by registry operations.
var (
	ErrUnknownDataset   = errors.New("service: unknown dataset")
	ErrDuplicateDataset = errors.New("service: dataset already registered")
	// ErrNotMaintainable reports a mutation against a dataset that was
	// explicitly frozen (EngineConfig.ReadOnly).
	ErrNotMaintainable = errors.New("service: dataset does not accept maintenance")
	// ErrUnknownPoint re-exports the store's sentinel for deletes naming an
	// id that was never assigned or is already deleted.
	ErrUnknownPoint = flat.ErrUnknownPoint
	// ErrDegraded re-exports the durability layer's sentinel: a disk fault
	// moved the dataset to degraded read-only, mutations fail until the
	// background re-arm succeeds, reads keep serving.
	ErrDegraded = durable.ErrDegraded
)

// EngineConfig selects and configures the engine built for a dataset.
type EngineConfig struct {
	// Kind names the engine as core.NewByName accepts it: "ipo", "sfsa",
	// "sfsd", "hybrid", "parallel-sfs" or "parallel-hybrid". Empty defaults
	// to "sfsa", the paper's recommended general-purpose engine.
	Kind string
	// Template is the shared preference template R̃; nil means empty.
	Template *order.Preference
	// Tree configures tree construction for the tree-backed kinds.
	Tree ipotree.Options
	// Partitions is the block count for the parallel kinds (0 = GOMAXPROCS).
	Partitions int
	// CompactThreshold tunes the versioned store: the delta+tombstone row
	// count that triggers background compaction. 0 means the default
	// (flat.DefaultCompactThreshold), negative disables automatic
	// compaction.
	CompactThreshold int
	// ReadOnly freezes the dataset: Insert/Delete return
	// ErrNotMaintainable even on engines that support maintenance.
	ReadOnly bool
	// Durable, when non-nil, persists the dataset under Durable.Dir: the
	// engine's store is recovered from the directory's checkpoint + WAL (the
	// registered dataset seeds it only on first open) and every mutation is
	// write-ahead logged. Durable.CompactThreshold left zero inherits
	// CompactThreshold above.
	Durable *durable.Config
}

// DatasetInfo is a read-only snapshot of one registered dataset.
type DatasetInfo struct {
	Name         string `json:"name"`
	Points       int    `json:"points"`
	Engine       string `json:"engine"`
	Maintainable bool   `json:"maintainable"`
	ReadOnly     bool   `json:"readOnly,omitempty"`
	EngineBytes  int    `json:"engineBytes"`
	Queries      uint64 `json:"queries"`
	Version      uint64 `json:"version"`
	// Health is the dataset's durability health ("ok", "recovering",
	// "degraded"); memory-only datasets are always "ok".
	Health     string           `json:"health"`
	Store      *flat.StoreStats `json:"store,omitempty"`
	Durability *durable.Stats   `json:"durability,omitempty"`
}

// dsEntry is one hosted dataset. There is no entry-level lock: queries read
// the engine's versioned store through atomically-swapped snapshots and are
// never blocked by writers; writers serialize inside the store (and, for
// SFS-A, inside the engine's structure lock). version identifies the data a
// query result reflects; epoch is the registry-wide registration sequence
// number, so a name removed and re-added never repeats a (epoch, version)
// pair.
type dsEntry struct {
	name      string
	epoch     uint64
	schema    *data.Schema
	store     *flat.Store
	eng       core.Engine
	dur       *durable.DB              // nil for memory-only datasets
	maint     core.Maintainer          // nil when unsupported or read-only
	validator core.PreferenceValidator // nil when the engine accepts everything
	readOnly  bool

	queries atomic.Uint64
}

// version returns the data version the entry's query results reflect.
func (e *dsEntry) version() uint64 { return e.store.Version() }

// state renders the cache-state token "epoch.version" for a version.
func (e *dsEntry) state(version uint64) string {
	return fmt.Sprintf("%d.%d", e.epoch, version)
}

// Registry hosts named datasets, each behind a configurable engine. All
// methods are safe for concurrent use; the registry-level lock only guards
// the name table, so traffic to one dataset never blocks another.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*dsEntry
	epochs  atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*dsEntry)}
}

// Add builds the configured engine for the dataset and registers it under
// name. Engine construction (potentially expensive preprocessing) runs
// outside the registry lock, so serving continues while a dataset loads.
func (r *Registry) Add(name string, ds *data.Dataset, cfg EngineConfig) error {
	if name == "" {
		return fmt.Errorf("service: empty dataset name")
	}
	if ds == nil {
		return fmt.Errorf("service: nil dataset %q", name)
	}
	r.mu.RLock()
	_, dup := r.entries[name]
	r.mu.RUnlock()
	if dup {
		return fmt.Errorf("%w: %q", ErrDuplicateDataset, name)
	}

	kind := cfg.Kind
	if kind == "" {
		kind = "sfsa"
	}
	tmpl := cfg.Template
	if tmpl == nil {
		tmpl = ds.Schema().EmptyPreference()
	}
	opts := core.Options{
		Tree:             cfg.Tree,
		Partitions:       cfg.Partitions,
		CompactThreshold: cfg.CompactThreshold,
	}
	var eng core.Engine
	var db *durable.DB
	var err error
	if cfg.Durable != nil {
		dcfg := *cfg.Durable
		if dcfg.CompactThreshold == 0 {
			dcfg.CompactThreshold = cfg.CompactThreshold
		}
		db, err = durable.Open(ds, dcfg)
		if err != nil {
			return fmt.Errorf("service: opening durable state for %q: %w", name, err)
		}
		eng, err = core.NewFromStore(kind, db.Store(), tmpl, opts)
	} else {
		eng, err = core.NewByName(kind, ds, tmpl, opts)
	}
	if err != nil {
		if db != nil {
			db.Close()
		}
		return fmt.Errorf("service: building engine for %q: %w", name, err)
	}
	e := &dsEntry{
		name:      name,
		schema:    ds.Schema(),
		store:     core.StoreOf(eng),
		eng:       eng,
		dur:       db,
		validator: core.ValidatorOf(eng),
		readOnly:  cfg.ReadOnly,
	}
	if !cfg.ReadOnly {
		e.maint = core.Maintainable(eng)
	}

	r.mu.Lock()
	if _, dup := r.entries[name]; dup {
		r.mu.Unlock()
		if db != nil {
			db.Close()
		}
		return fmt.Errorf("%w: %q", ErrDuplicateDataset, name)
	}
	e.epoch = r.epochs.Add(1)
	r.entries[name] = e
	r.mu.Unlock()
	return nil
}

// Remove unregisters the dataset, reporting whether it existed. In-flight
// queries keep the snapshot they already loaded and complete normally; a
// durable dataset is checkpointed and its log closed, so mutations racing
// the removal either land durably or fail cleanly.
func (r *Registry) Remove(name string) bool {
	r.mu.Lock()
	e, ok := r.entries[name]
	delete(r.entries, name)
	r.mu.Unlock()
	if ok && e.dur != nil {
		e.dur.Close()
	}
	return ok
}

// Close checkpoints and closes every durable dataset. The registry stays
// usable for reads; mutations on closed durable datasets fail. Call it after
// traffic has stopped (graceful shutdown).
func (r *Registry) Close() error {
	r.mu.RLock()
	entries := make([]*dsEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	var first error
	for _, e := range entries {
		if e.dur == nil {
			continue
		}
		if err := e.dur.Close(); err != nil && first == nil {
			first = fmt.Errorf("service: closing durable state for %q: %w", e.name, err)
		}
	}
	return first
}

func (r *Registry) entry(name string) (*dsEntry, error) {
	r.mu.RLock()
	e, ok := r.entries[name]
	r.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
	}
	return e, nil
}

// Names returns the registered dataset names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.entries))
	for name := range r.entries {
		out = append(out, name)
	}
	r.mu.RUnlock()
	slices.Sort(out)
	return out
}

// Info returns a snapshot of every registered dataset, sorted by name.
func (r *Registry) Info() []DatasetInfo {
	r.mu.RLock()
	entries := make([]*dsEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.RUnlock()
	out := make([]DatasetInfo, len(entries))
	for i, e := range entries {
		info := DatasetInfo{
			Name:         e.name,
			Points:       e.liveN(),
			Engine:       e.eng.Name(),
			Maintainable: e.maint != nil,
			ReadOnly:     e.readOnly,
			EngineBytes:  e.eng.SizeBytes(),
			Queries:      e.queries.Load(),
			Version:      e.version(),
			Health:       durable.HealthOK.String(),
		}
		st := e.store.Stats()
		info.Store = &st
		if e.dur != nil {
			d := e.dur.Stats()
			info.Durability = &d
			info.Health = d.Health
		}
		out[i] = info
	}
	slices.SortFunc(out, func(a, b DatasetInfo) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// liveN reports the current point count through the store's snapshot.
func (e *dsEntry) liveN() int { return e.store.Snapshot().LiveN() }

// Schema returns the dataset's schema, used to parse incoming preferences.
func (r *Registry) Schema(name string) (*data.Schema, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, err
	}
	return e.schema, nil
}

// State returns the dataset's cache-state token "epoch.version": epoch is
// the registry-wide registration sequence number and version counts the
// Insert/Delete operations applied since registration. Cache keys embed the
// token, so results cached against a superseded state — after maintenance,
// or after the name was removed and re-added over different data — die
// naturally even without explicit invalidation. Compaction rewrites the
// store layout without changing the version (the compacted snapshot is
// query-equivalent), so it never touches the cache.
func (r *Registry) State(name string) (string, error) {
	e, err := r.entry(name)
	if err != nil {
		return "", err
	}
	return e.state(e.version()), nil
}

// Query answers SKY(pref) over the named dataset. Queries are lock-free
// against writers: the engine grabs the store's current snapshot with one
// atomic load and works on that immutable version for the rest of the query.
//
// The returned state token names the dataset state the result reflects, for
// the executor to embed in the cache key. It is derived by reading the
// version before and after the engine runs: if they agree, every snapshot
// the engine could have loaded in between carries that version (compaction
// preserves it), so the result is cacheable under it; if a writer published
// in between, the token is empty and the result — still a perfectly valid
// point-in-time answer — is served but not cached.
func (r *Registry) Query(ctx context.Context, name string, pref *order.Preference) ([]data.PointID, string, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, "", err
	}
	e.queries.Add(1)
	before := e.version()
	ids, err := e.eng.Skyline(ctx, pref)
	if err != nil {
		return nil, "", err
	}
	if after := e.version(); after != before {
		return ids, "", nil
	}
	return ids, e.state(before), nil
}

// QueryCandidates answers SKY(pref) over the named dataset restricted to the
// candidate point ids — the semantic-cache path. The caller guarantees the
// candidates are a superset of the answer at the given state token (Theorem 1:
// the skyline under a refined preference is a subset of the skyline under any
// coarser one, so a coarser preference's skyline cached at that state
// qualifies). The current snapshot is pinned first and its state compared
// against state: on mismatch — the data moved since the candidates were
// cached — ok is false, nothing is computed, and the caller falls back to a
// full query. Because the whole
// computation runs against the pinned snapshot, a true ok is exact for that
// state even if writers publish concurrently, so the result is cacheable
// under the same token.
func (r *Registry) QueryCandidates(ctx context.Context, name, state string, pref *order.Preference, cand []data.PointID) (ids []data.PointID, ok bool, err error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, false, err
	}
	snap := e.store.Snapshot()
	if e.state(snap.Version()) != state {
		return nil, false, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if e.validator != nil {
		// A preference the engine's query path rejects — a non-refinement of
		// the template, an unmaterialized value under a top-K tree — must
		// keep failing here too, or the same request would flip between
		// error and success with cache warmth. The caller falls back to the
		// cold path, which surfaces the engine's own error.
		if err := e.validator.ValidatePreference(pref); err != nil {
			return nil, false, err
		}
	}
	cmp, err := dominance.NewComparator(e.schema, pref)
	if err != nil {
		return nil, false, err
	}
	rows := make([]int32, 0, len(cand))
	for _, id := range cand {
		row, live := snap.RowOf(id)
		if !live {
			// A candidate that is not live at the matching version should be
			// impossible; bail to the cold path rather than risk a wrong
			// answer on an inconsistent cache entry.
			return nil, false, nil
		}
		rows = append(rows, row)
	}
	e.queries.Add(1)
	proj, err := snap.ProjectRows(cmp, rows)
	if err != nil {
		return nil, false, err
	}
	out, err := proj.SkylineRangeCtx(ctx, 0, proj.N())
	if err != nil {
		return nil, false, err
	}
	return proj.IDs(out), true, nil
}

// BatchItem is one member's result of a vectorized batch execution.
type BatchItem struct {
	IDs []data.PointID
	Err error
}

// QueryBatch answers every preference's skyline over the named dataset in
// one shared pass (flat.SkylineBatch): the snapshot is pinned once, the scan
// presorts once under the batch's meet preference, and each member pays only
// a lightweight window over the meet skyline. Members the engine's query
// path would reject carry their validation error individually; the rest
// share one result set.
//
// ok is false — with nothing computed — when the members share too little
// structure for the shared scan to pay (flat.ErrBatchWindow); the caller
// then falls back to independent queries. The state token follows the same before/after version
// protocol as Query: empty means a writer raced and the results must not be
// cached.
func (r *Registry) QueryBatch(ctx context.Context, name string, prefs []*order.Preference) (items []BatchItem, state string, ok bool, err error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, "", false, err
	}
	items = make([]BatchItem, len(prefs))
	run := make([]*order.Preference, 0, len(prefs))
	runIdx := make([]int, 0, len(prefs))
	for i, p := range prefs {
		if e.validator != nil {
			if verr := e.validator.ValidatePreference(p); verr != nil {
				items[i].Err = verr
				continue
			}
		}
		run = append(run, p)
		runIdx = append(runIdx, i)
	}
	if len(run) == 0 {
		return items, e.state(e.version()), true, nil
	}
	snap := e.store.Snapshot()
	before := snap.Version()
	e.queries.Add(uint64(len(run)))
	results, err := snap.SkylineBatch(ctx, run, 0)
	if errors.Is(err, flat.ErrBatchWindow) {
		return nil, "", false, nil
	}
	if err != nil {
		return nil, "", false, err
	}
	for j, ids := range results {
		items[runIdx[j]].IDs = ids
	}
	if e.version() != before {
		return items, "", true, nil
	}
	return items, e.state(before), true, nil
}

// maintainer resolves the entry's maintenance interface, normalizing the
// not-maintainable error.
func (r *Registry) maintainer(name string) (*dsEntry, core.Maintainer, error) {
	e, err := r.entry(name)
	if err != nil {
		return nil, nil, err
	}
	if e.maint == nil {
		return nil, nil, fmt.Errorf("%w: %q is read-only", ErrNotMaintainable, name)
	}
	return e, e.maint, nil
}

// Insert adds a point to a maintainable dataset (§4.3). Writers serialize
// inside the engine's store; concurrent queries keep reading the snapshots
// they already hold.
func (r *Registry) Insert(name string, num []float64, nom []order.Value) (data.PointID, error) {
	_, m, err := r.maintainer(name)
	if err != nil {
		return 0, err
	}
	return m.Insert(num, nom)
}

// Delete removes a point from a maintainable dataset. Unknown ids return an
// error wrapping ErrUnknownPoint.
func (r *Registry) Delete(name string, id data.PointID) error {
	_, m, err := r.maintainer(name)
	if err != nil {
		return err
	}
	return m.Delete(id)
}

// PointInput is one point of a batch insert.
type PointInput struct {
	Num []float64
	Nom []order.Value
}

// InsertBatch applies a batch of inserts, stopping at the first failure.
// The ids of the points inserted so far are always returned; err describes
// the first failing member when the batch was cut short. Store-backed
// engines (core.BatchMaintainer) apply the whole batch under one snapshot
// publish and validate it up front, so a bad member leaves nothing applied;
// SFS-A applies member by member (each insert is an incremental structure
// update).
func (r *Registry) InsertBatch(name string, pts []PointInput) ([]data.PointID, error) {
	_, m, err := r.maintainer(name)
	if err != nil {
		return nil, err
	}
	if bm, ok := m.(core.BatchMaintainer); ok {
		nums := make([][]float64, len(pts))
		noms := make([][]order.Value, len(pts))
		for i, p := range pts {
			nums[i], noms[i] = p.Num, p.Nom
		}
		ids, err := bm.InsertBatch(nums, noms)
		if err != nil {
			return ids, fmt.Errorf("service: insert batch of %d: %w", len(pts), err)
		}
		return ids, nil
	}
	ids := make([]data.PointID, 0, len(pts))
	for i, p := range pts {
		id, err := m.Insert(p.Num, p.Nom)
		if err != nil {
			return ids, fmt.Errorf("service: insert %d/%d: %w", i, len(pts), err)
		}
		ids = append(ids, id)
	}
	return ids, nil
}

// DeleteBatch applies a batch of deletes in order, stopping at the first
// failure and returning how many were applied. Store-backed engines clone
// the tombstone set once for the whole batch.
func (r *Registry) DeleteBatch(name string, ids []data.PointID) (int, error) {
	_, m, err := r.maintainer(name)
	if err != nil {
		return 0, err
	}
	if bm, ok := m.(core.BatchMaintainer); ok {
		applied, err := bm.DeleteBatch(ids)
		if err != nil {
			return applied, fmt.Errorf("service: delete %d/%d: %w", applied, len(ids), err)
		}
		return applied, nil
	}
	for i, id := range ids {
		if err := m.Delete(id); err != nil {
			return i, fmt.Errorf("service: delete %d/%d: %w", i, len(ids), err)
		}
	}
	return len(ids), nil
}

// Point returns one point of the named dataset by id (for response
// rendering), read through the store's current snapshot so it always
// reflects maintenance — ids of deleted points are an error even on engines
// registered before any mutation arrived.
func (r *Registry) Point(name string, id data.PointID) (data.Point, error) {
	e, err := r.entry(name)
	if err != nil {
		return data.Point{}, err
	}
	return e.store.Snapshot().Point(id)
}
