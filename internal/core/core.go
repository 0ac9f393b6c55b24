// Package core assembles the paper's engines behind one interface. The
// primary contributions — IPO-Tree Search (§3) and Adaptive SFS (§4) — live
// in their own packages (internal/ipotree, internal/adaptive); core provides
// the uniform Engine view used by the public API, the CLIs and the benchmark
// harness, plus the SFS-D baseline, the hybrid of §5.3 and the partitioned
// multi-core engines of internal/parallel.
//
// Every engine reads a versioned columnar store (flat.Store) and supports
// §4.3 maintenance through the Maintainer interface: scan engines are
// trivially maintainable (each query projects the current snapshot), SFS-A
// maintains its structures incrementally, and the tree-backed engines
// version-gate their tree — it answers while the data is unchanged, queries
// fall back to a live-snapshot scan after a mutation, and compaction
// rebuilds the tree.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"

	"prefsky/internal/adaptive"
	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/hybrid"
	"prefsky/internal/ipotree"
	"prefsky/internal/order"
	"prefsky/internal/parallel"
)

// Engine answers implicit-preference skyline queries.
type Engine interface {
	// Name identifies the algorithm (the labels of §5: "IPO Tree",
	// "IPO Tree-10", "SFS-A", "SFS-D", "Hybrid", plus the partitioned
	// "Parallel-SFS" and "Parallel-Hybrid").
	Name() string
	// Skyline returns SKY(R̃′) as ascending point ids. The context bounds
	// the query: engines observe cancellation at least on entry, and the
	// partitioned engines abort between blocks, returning ctx.Err().
	Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error)
	// SizeBytes reports the storage the engine retains beyond the dataset.
	SizeBytes() int
}

// Maintainer applies §4.3 incremental maintenance: point insertions and
// deletions that queries reflect immediately, without rebuilding the engine.
type Maintainer interface {
	// Insert adds a point, returning its assigned id. Ids are never reused.
	Insert(num []float64, nom []order.Value) (data.PointID, error)
	// Delete removes a live point. Unknown or already-deleted ids return an
	// error wrapping flat.ErrUnknownPoint.
	Delete(id data.PointID) error
}

// BatchMaintainer is the optional batch form of Maintainer: the whole batch
// is applied under one writer-lock acquisition and one snapshot publish.
// flat.Store implements it; the service uses it when available so a 1024-id
// delete clones the tombstone set once instead of 1024 times.
type BatchMaintainer interface {
	Maintainer
	// InsertBatch appends points row-wise (nums[i] with noms[i]); the whole
	// batch is validated before anything mutates.
	InsertBatch(nums [][]float64, noms [][]order.Value) ([]data.PointID, error)
	// DeleteBatch tombstones ids in order, stopping at the first unknown
	// one and reporting how many landed.
	DeleteBatch(ids []data.PointID) (int, error)
}

// maintainable is implemented by engines that can expose a Maintainer.
type maintainable interface{ Maintainer() Maintainer }

// Maintainable returns the engine's maintenance interface (§4.3), or nil
// when the engine does not implement one.
func Maintainable(e Engine) Maintainer {
	if m, ok := e.(maintainable); ok {
		return m.Maintainer()
	}
	return nil
}

// PreferenceValidator is implemented by engines whose query path rejects
// some preferences outright — a non-refinement of the template (SFS-A, the
// hybrids) or an unmaterialized value under a top-K restricted tree (bare
// IPO). ValidatePreference returns the error the engine's query path would
// return for the preference, without serving it; nil means the engine
// accepts it. Alternate serving paths (the service's semantic cache) consult
// it so that whether a query errors never depends on cache warmth.
type PreferenceValidator interface {
	ValidatePreference(pref *order.Preference) error
}

// ValidatorOf returns the engine's preference-acceptance hook, or nil when
// the engine accepts every well-formed preference (the scan engines).
func ValidatorOf(e Engine) PreferenceValidator {
	if v, ok := e.(PreferenceValidator); ok {
		return v
	}
	return nil
}

// storeBacked is implemented by engines reading a versioned columnar store.
type storeBacked interface{ Store() *flat.Store }

// StoreOf returns the versioned store the engine reads, or nil for an
// engine that reads none. The store is the system of record for point
// lookups, live counts and the data version.
func StoreOf(e Engine) *flat.Store {
	if s, ok := e.(storeBacked); ok {
		return s.Store()
	}
	return nil
}

// VersionOf returns the data version the engine's query results reflect: the
// store's mutation counter, or 0 for an engine without a store.
func VersionOf(e Engine) uint64 {
	if st := StoreOf(e); st != nil {
		return st.Version()
	}
	return 0
}

// Options configures engine construction for NewByName.
type Options struct {
	// Tree configures tree construction for the tree-backed kinds and is
	// ignored otherwise.
	Tree ipotree.Options
	// Partitions is the block count for the parallel kinds (0 = GOMAXPROCS)
	// and is ignored otherwise.
	Partitions int
	// CompactThreshold is the delta+tombstone row count that triggers
	// background compaction of the engine's versioned store: 0 means the
	// default (flat.DefaultCompactThreshold), negative disables automatic
	// compaction.
	CompactThreshold int
}

// scanFallback computes the skyline of the store's current snapshot with the
// flat SFS kernel — the path tree-backed engines take while their tree is
// stale.
func scanFallback(ctx context.Context, snap *flat.Snapshot, pref *order.Preference) ([]data.PointID, error) {
	cmp, err := dominance.NewComparator(snap.Schema(), pref)
	if err != nil {
		return nil, err
	}
	proj, err := snap.Project(cmp)
	if err != nil {
		return nil, err
	}
	rows, err := proj.SkylineRangeCtx(ctx, 0, proj.N())
	if err != nil {
		return nil, err
	}
	return proj.IDs(rows), nil
}

// ipoEngine serves a version-gated IPO-tree over a versioned store: the tree
// answers while the snapshot version matches its build, mutations route
// queries to a flat scan of the live snapshot, and compaction rebuilds the
// tree.
type ipoEngine struct {
	name     string
	store    *flat.Store
	template *order.Preference
	opts     ipotree.Options
	vt       atomic.Pointer[ipotree.Versioned]
}

func (e *ipoEngine) Name() string { return e.name }

func (e *ipoEngine) Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := e.store.Snapshot()
	vt := e.vt.Load()
	if vt.Version() == snap.Version() {
		return vt.Query(pref)
	}
	// Stale tree: run the query against the tree build anyway — not for its
	// result (the data moved) but for its contract. A preference the current
	// build rejects (wrong shape, not a refinement, unmaterialized values
	// under TopK) must keep failing while the tree is stale, or maintenance
	// timing would flip the same query between error and success.
	if _, err := vt.Query(pref); err != nil {
		return nil, err
	}
	return scanFallback(ctx, snap, pref)
}

func (e *ipoEngine) SizeBytes() int { return e.vt.Load().Tree().SizeBytes() }

// Tree exposes the current tree build.
func (e *ipoEngine) Tree() *ipotree.Tree { return e.vt.Load().Tree() }

// ValidatePreference replays the query contract against the current tree
// build, exactly like the stale path: shape, template-refinement and top-K
// materialization rejections must hold regardless of how a caller plans to
// serve the result. Materialized walks the same nodes Query would without
// evaluating the set algebra, so validating costs node hops, not a skyline.
func (e *ipoEngine) ValidatePreference(pref *order.Preference) error {
	return e.vt.Load().Tree().Materialized(pref)
}

// Store implements the store-backed introspection hook.
func (e *ipoEngine) Store() *flat.Store { return e.store }

// Maintainer implements maintenance by mutating the store; the tree goes
// stale and queries scan until compaction rebuilds it.
func (e *ipoEngine) Maintainer() Maintainer { return e.store }

// rebuild is the compaction hook: rebuild the version-gated tree against the
// compacted snapshot (ipotree.RebuildInto); build failures keep the scan
// fallback serving.
func (e *ipoEngine) rebuild(snap *flat.Snapshot) {
	ipotree.RebuildInto(&e.vt, snap, e.template, e.opts)
}

// NewIPOTree builds the full "IPO Tree" engine over a private versioned
// store.
func NewIPOTree(ds *data.Dataset, template *order.Preference, opts ipotree.Options) (Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	return newIPOTree(flat.NewStore(ds, 0), template, opts)
}

func newIPOTree(store *flat.Store, template *order.Preference, opts ipotree.Options) (Engine, error) {
	name := "IPO Tree"
	if opts.TopK > 0 {
		name = fmt.Sprintf("IPO Tree-%d", opts.TopK)
	}
	snap := store.Snapshot()
	tree, ids, err := ipotree.BuildPoints(store.Schema(), snap.Points(), template, opts)
	if err != nil {
		return nil, err
	}
	e := &ipoEngine{name: name, store: store, template: tree.Template(), opts: opts}
	e.vt.Store(ipotree.NewVersioned(tree, snap.Version(), ids))
	store.OnCompact(e.rebuild)
	return e, nil
}

// adaptiveEngine adapts *adaptive.Engine.
type adaptiveEngine struct {
	e *adaptive.Engine
}

func (a *adaptiveEngine) Name() string { return "SFS-A" }
func (a *adaptiveEngine) Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.e.Query(pref)
}
func (a *adaptiveEngine) SizeBytes() int         { return a.e.SizeBytes() }
func (a *adaptiveEngine) Store() *flat.Store     { return a.e.Store() }
func (a *adaptiveEngine) Maintainer() Maintainer { return a.e }
func (a *adaptiveEngine) ValidatePreference(pref *order.Preference) error {
	return a.e.ValidatePreference(pref)
}

// Adaptive exposes the underlying engine (progressive iteration, stats).
func (a *adaptiveEngine) Adaptive() *adaptive.Engine { return a.e }

// NewAdaptiveSFS builds the "SFS-A" engine.
func NewAdaptiveSFS(ds *data.Dataset, template *order.Preference) (Engine, error) {
	e, err := adaptive.New(ds, template)
	if err != nil {
		return nil, err
	}
	return &adaptiveEngine{e: e}, nil
}

func newAdaptiveSFSStore(store *flat.Store, template *order.Preference) (Engine, error) {
	e, err := adaptive.NewFromStore(store, template)
	if err != nil {
		return nil, err
	}
	return &adaptiveEngine{e: e}, nil
}

// SFSD is the baseline: no per-preference preprocessing; every query sorts
// and scans the entire dataset (§5's SFS-D). The engine reads a versioned
// columnar store: each query grabs the current snapshot lock-free and pays
// only the rank projection plus the packed-key presort and scan, and
// Insert/Delete are supported through the store.
type SFSD struct {
	store *flat.Store
}

// NewSFSD wraps a dataset as the SFS-D baseline over a private versioned
// store.
func NewSFSD(ds *data.Dataset) (*SFSD, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	return &SFSD{store: flat.NewStore(ds, 0)}, nil
}

// NewSFSDStore wraps an existing versioned store as the SFS-D baseline.
func NewSFSDStore(store *flat.Store) (*SFSD, error) {
	if store == nil {
		return nil, fmt.Errorf("core: nil store")
	}
	return &SFSD{store: store}, nil
}

// Name implements Engine.
func (s *SFSD) Name() string { return "SFS-D" }

// Skyline implements Engine by running SFS over the whole dataset.
func (s *SFSD) Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The flat scan is cancellable for free, so a disconnected client or
	// expired deadline frees its worker slot mid-scan instead of burning it
	// for the full O(N) pass.
	return scanFallback(ctx, s.store.Snapshot(), pref)
}

// SizeBytes implements Engine; SFS-D keeps no index (§5: "SFS-D does not use
// extra storage"). The columnar store is an alternate representation of the
// dataset itself, not preference-dependent storage — see BlockBytes.
func (s *SFSD) SizeBytes() int { return 0 }

// BlockBytes reports the columnar store's footprint.
func (s *SFSD) BlockBytes() int { return s.store.Snapshot().SizeBytes() }

// Store returns the versioned store.
func (s *SFSD) Store() *flat.Store { return s.store }

// Maintainer returns the store-backed maintenance interface.
func (s *SFSD) Maintainer() Maintainer { return s.store }

// hybridEngine adapts *hybrid.Engine.
type hybridEngine struct {
	e *hybrid.Engine
}

func (h *hybridEngine) Name() string { return "Hybrid" }
func (h *hybridEngine) Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return h.e.Query(pref)
}
func (h *hybridEngine) SizeBytes() int         { return h.e.SizeBytes() }
func (h *hybridEngine) Store() *flat.Store     { return h.e.Store() }
func (h *hybridEngine) Maintainer() Maintainer { return h.e }
func (h *hybridEngine) ValidatePreference(pref *order.Preference) error {
	return h.e.ValidatePreference(pref)
}

// NewHybrid builds the §5.3 hybrid: a top-K IPO-tree with SFS-A fallback.
func NewHybrid(ds *data.Dataset, template *order.Preference, treeOpts ipotree.Options) (Engine, error) {
	e, err := hybrid.New(ds, template, treeOpts)
	if err != nil {
		return nil, err
	}
	return &hybridEngine{e: e}, nil
}

func newHybridStore(store *flat.Store, template *order.Preference, treeOpts ipotree.Options) (Engine, error) {
	e, err := hybrid.NewFromStore(store, template, treeOpts)
	if err != nil {
		return nil, err
	}
	return &hybridEngine{e: e}, nil
}

// parallelEngine adapts *parallel.Engine.
type parallelEngine struct {
	e *parallel.Engine
}

func (p *parallelEngine) Name() string { return "Parallel-SFS" }
func (p *parallelEngine) Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error) {
	return p.e.Skyline(ctx, pref)
}
func (p *parallelEngine) SizeBytes() int         { return p.e.SizeBytes() }
func (p *parallelEngine) Store() *flat.Store     { return p.e.Store() }
func (p *parallelEngine) Maintainer() Maintainer { return p.e.Store() }

// NewParallelSFS builds the partitioned multi-core SFS-D counterpart:
// P concurrent block scans plus a merge-filter. partitions <= 0 defaults to
// GOMAXPROCS.
func NewParallelSFS(ds *data.Dataset, partitions int) (Engine, error) {
	e, err := parallel.New(ds, partitions)
	if err != nil {
		return nil, err
	}
	return &parallelEngine{e: e}, nil
}

// parallelHybridEngine adapts *parallel.Hybrid.
type parallelHybridEngine struct {
	e *parallel.Hybrid
}

func (p *parallelHybridEngine) Name() string { return "Parallel-Hybrid" }
func (p *parallelHybridEngine) Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error) {
	return p.e.Skyline(ctx, pref)
}
func (p *parallelHybridEngine) SizeBytes() int         { return p.e.SizeBytes() }
func (p *parallelHybridEngine) Store() *flat.Store     { return p.e.Store() }
func (p *parallelHybridEngine) Maintainer() Maintainer { return p.e.Store() }
func (p *parallelHybridEngine) ValidatePreference(pref *order.Preference) error {
	return p.e.ValidatePreference(pref)
}

// NewParallelHybrid builds the hybrid whose unmaterialized-value fallback is
// the partitioned scan instead of single-threaded SFS-A: tree hits stay
// instant, and the slow path uses every core.
func NewParallelHybrid(ds *data.Dataset, template *order.Preference, treeOpts ipotree.Options, partitions int) (Engine, error) {
	e, err := parallel.NewHybrid(ds, template, treeOpts, partitions)
	if err != nil {
		return nil, err
	}
	return &parallelHybridEngine{e: e}, nil
}

// Kinds lists the engine names NewByName accepts, in the paper's order with
// the partitioned engines last.
func Kinds() []string {
	return []string{"ipo", "sfsa", "sfsd", "hybrid", "parallel-sfs", "parallel-hybrid"}
}

// NewByName builds an engine from its configuration name, the selector used
// by the CLIs and the service registry. Accepted kinds (case-insensitive,
// with the §5 labels as synonyms):
//
//	ipo, ipotree, "ipo tree"  → NewIPOTree
//	sfsa, sfs-a               → NewAdaptiveSFS
//	sfsd, sfs-d               → NewSFSD
//	hybrid                    → NewHybrid
//	parallel-sfs, psfs        → NewParallelSFS
//	parallel-hybrid, phybrid  → NewParallelHybrid
//
// opts.Tree applies to the tree-backed kinds and opts.Partitions to the
// parallel kinds; each is ignored otherwise. The engine reads a private
// versioned store compacting at opts.CompactThreshold and supports
// maintenance (Maintainable returns non-nil).
func NewByName(kind string, ds *data.Dataset, template *order.Preference, opts Options) (Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	return NewFromStore(kind, flat.NewStore(ds, opts.CompactThreshold), template, opts)
}

// NewFromStore builds an engine of the given kind over an existing versioned
// store — the durability path: a recovered store exists before any engine
// does, so construction cannot route through NewByName's dataset wrapping.
// Kind names and option handling match NewByName exactly;
// opts.CompactThreshold is the store's own concern and is ignored here.
func NewFromStore(kind string, store *flat.Store, template *order.Preference, opts Options) (Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("core: nil store")
	}
	switch strings.ToLower(strings.TrimSpace(kind)) {
	case "ipo", "ipotree", "ipo tree", "ipo-tree":
		return newIPOTree(store, template, opts.Tree)
	case "sfsa", "sfs-a":
		return newAdaptiveSFSStore(store, template)
	case "sfsd", "sfs-d":
		e, err := NewSFSDStore(store)
		if err != nil {
			return nil, err
		}
		return e, nil
	case "hybrid":
		return newHybridStore(store, template, opts.Tree)
	case "parallel-sfs", "parallelsfs", "parallel sfs", "psfs":
		e, err := parallel.NewFromStore(store, opts.Partitions)
		if err != nil {
			return nil, err
		}
		return &parallelEngine{e: e}, nil
	case "parallel-hybrid", "parallelhybrid", "parallel hybrid", "phybrid":
		e, err := parallel.NewHybridFromStore(store, template, opts.Tree, opts.Partitions)
		if err != nil {
			return nil, err
		}
		return &parallelHybridEngine{e: e}, nil
	default:
		return nil, fmt.Errorf("core: unknown engine kind %q (want one of %s)",
			kind, strings.Join(Kinds(), ", "))
	}
}

// Interface conformance checks.
var (
	_ Engine          = (*ipoEngine)(nil)
	_ Engine          = (*adaptiveEngine)(nil)
	_ Engine          = (*SFSD)(nil)
	_ Engine          = (*hybridEngine)(nil)
	_ Engine          = (*parallelEngine)(nil)
	_ Engine          = (*parallelHybridEngine)(nil)
	_ Maintainer      = (*flat.Store)(nil)
	_ Maintainer      = (*adaptive.Engine)(nil)
	_ Maintainer      = (*hybrid.Engine)(nil)
	_ BatchMaintainer = (*flat.Store)(nil)
)
