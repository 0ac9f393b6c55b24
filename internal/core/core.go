// Package core assembles the paper's engines behind one interface. The
// primary contributions — IPO-Tree Search (§3) and Adaptive SFS (§4) — live
// in their own packages (internal/ipotree, internal/adaptive); core provides
// the uniform Engine view used by the public API, the CLIs and the benchmark
// harness.
//
// Every kind is built from three parts over one versioned columnar store
// (flat.Store):
//
//   - scan(P): the flat SFS kernel over the current snapshot's projection,
//     split into P row ranges (sfsd: P = 1; parallel-sfs: Options.Partitions);
//   - sfsa: Adaptive SFS, which maintains its structures incrementally;
//   - tree: a version-gated IPO-tree over a fallback. It answers while its
//     build version equals the snapshot's, the fallback answers otherwise,
//     and compaction rebuilds it. ipo is strict over scan(1); hybrid (§5.3)
//     is lenient over sfsa; parallel-hybrid is lenient over scan(P).
//
// Every engine supports §4.3 maintenance through the Maintainer interface.
package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"prefsky/internal/adaptive"
	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
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

// scan is the one scan every scan-backed kind runs: the comparator for pref,
// the rank projection of one pinned snapshot, and the flat SFS kernel over
// parts row ranges merge-filtered by parallel.SkylineProjected. parts = 1 is
// a single SkylineRangeCtx over the whole projection; parts <= 0 means
// GOMAXPROCS.
func scan(ctx context.Context, snap *flat.Snapshot, pref *order.Preference, parts int) ([]data.PointID, error) {
	cmp, err := dominance.NewComparator(snap.Schema(), pref)
	if err != nil {
		return nil, err
	}
	proj, err := snap.Project(cmp)
	if err != nil {
		return nil, err
	}
	return parallel.SkylineProjected(ctx, proj, parts)
}

// treeEngine is every tree-backed kind: a version-gated IPO-tree over a
// fallback. The tree answers while its build version equals the queried
// snapshot's and every queried value is materialized; otherwise the query
// goes to the fallback — SFS-A when sfsa is set, else scan(parts) over the
// same snapshot. Compaction rebuilds the tree.
//
// Acceptance is one rule, applied alike to a fresh, stale or rebuilt tree: a
// strict engine rejects whatever Tree.Materialized rejects (bare IPO cannot
// answer an unmaterialized value), a lenient one only what Tree.Validate
// rejects (the hybrids answer unmaterialized values from the fallback).
type treeEngine struct {
	name     string
	store    *flat.Store
	template *order.Preference
	opts     ipotree.Options
	strict   bool
	sfsa     *adaptive.Engine
	parts    int
	vt       atomic.Pointer[ipotree.Versioned]

	treeHits  atomic.Int64
	fallbacks atomic.Int64
}

// newTree builds e's first tree from the store's current snapshot and
// registers the compaction hook that rebuilds it.
func newTree(e *treeEngine, template *order.Preference) (Engine, error) {
	snap := e.store.Snapshot()
	tree, ids, err := ipotree.BuildPoints(e.store.Schema(), snap.Points(), template, e.opts)
	if err != nil {
		return nil, err
	}
	e.template = tree.Template()
	e.vt.Store(ipotree.NewVersioned(tree, snap.Version(), ids))
	e.store.OnCompact(func(snap *flat.Snapshot) {
		// Build failures keep the stale tree; the fallback keeps serving.
		ipotree.RebuildInto(&e.vt, snap, e.template, e.opts)
	})
	return e, nil
}

func (e *treeEngine) Name() string { return e.name }

// accept applies the acceptance rule to pref against tree, reporting
// whether the tree holds every node the query needs.
func (e *treeEngine) accept(tree *ipotree.Tree, pref *order.Preference) (bool, error) {
	err := tree.Materialized(pref)
	if err != nil && !e.strict && errors.Is(err, ipotree.ErrNotMaterialized) {
		return false, nil
	}
	return err == nil, err
}

func (e *treeEngine) Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	snap := e.store.Snapshot()
	vt := e.vt.Load()
	ok, err := e.accept(vt.Tree(), pref)
	if err != nil {
		return nil, err
	}
	if ok && vt.Version() == snap.Version() {
		e.treeHits.Add(1)
		return vt.Query(pref)
	}
	e.fallbacks.Add(1)
	if e.sfsa != nil {
		return e.sfsa.Query(pref)
	}
	return scan(ctx, snap, pref, e.parts)
}

// ValidatePreference returns the error Skyline would return for pref
// without serving it. It walks the tree's nodes but evaluates no set
// algebra.
func (e *treeEngine) ValidatePreference(pref *order.Preference) error {
	_, err := e.accept(e.vt.Load().Tree(), pref)
	return err
}

// SizeBytes reports the tree plus SFS-A when SFS-A is the fallback; a scan
// fallback keeps nothing.
func (e *treeEngine) SizeBytes() int {
	n := e.vt.Load().Tree().SizeBytes()
	if e.sfsa != nil {
		n += e.sfsa.SizeBytes()
	}
	return n
}

// Store implements the store-backed introspection hook.
func (e *treeEngine) Store() *flat.Store { return e.store }

// Maintainer mutates through SFS-A when it is the fallback, so its
// structures track the store, and through the store otherwise. Either way
// the tree goes stale and queries fall back until compaction rebuilds it.
func (e *treeEngine) Maintainer() Maintainer {
	if e.sfsa != nil {
		return e.sfsa
	}
	return e.store
}

// NewIPOTree builds the full "IPO Tree" engine over a private versioned
// store: strict over a one-range scan.
func NewIPOTree(ds *data.Dataset, template *order.Preference, opts ipotree.Options) (Engine, error) {
	return NewByName("ipo", ds, template, Options{Tree: opts})
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
	return NewByName("sfsa", ds, template, Options{})
}

// SFSD is the scan engine: no per-preference preprocessing; every query
// projects the store's current snapshot lock-free, presorts and scans it.
// With one range it is §5's SFS-D baseline; NewParallelSFS splits the scan
// over several ranges and merge-filters them. Insert/Delete are supported
// through the store.
type SFSD struct {
	name  string
	store *flat.Store
	parts int
}

// NewSFSD wraps a dataset as the SFS-D baseline over a private versioned
// store.
func NewSFSD(ds *data.Dataset) (*SFSD, error) {
	if ds == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	return &SFSD{name: "SFS-D", store: flat.NewStore(ds, 0), parts: 1}, nil
}

// Name implements Engine.
func (s *SFSD) Name() string { return s.name }

// Skyline implements Engine by running SFS over the whole dataset.
func (s *SFSD) Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The flat scan is cancellable for free, so a disconnected client or
	// expired deadline frees its worker slot mid-scan instead of burning it
	// for the full O(N) pass.
	return scan(ctx, s.store.Snapshot(), pref, s.parts)
}

// SizeBytes implements Engine; SFS-D keeps no index (§5: "SFS-D does not use
// extra storage"). The columnar store is an alternate representation of the
// dataset itself, not preference-dependent storage.
func (s *SFSD) SizeBytes() int { return 0 }

// Store returns the versioned store.
func (s *SFSD) Store() *flat.Store { return s.store }

// Maintainer returns the store-backed maintenance interface.
func (s *SFSD) Maintainer() Maintainer { return s.store }

// NewHybrid builds the §5.3 hybrid: a top-K IPO-tree, lenient over SFS-A.
func NewHybrid(ds *data.Dataset, template *order.Preference, treeOpts ipotree.Options) (Engine, error) {
	return NewByName("hybrid", ds, template, Options{Tree: treeOpts})
}

// NewParallelSFS builds the partitioned multi-core SFS-D counterpart:
// P concurrent range scans plus a merge-filter. partitions <= 0 defaults to
// GOMAXPROCS.
func NewParallelSFS(ds *data.Dataset, partitions int) (Engine, error) {
	return NewByName("parallel-sfs", ds, nil, Options{Partitions: partitions})
}

// NewParallelHybrid builds the hybrid whose fallback is the partitioned
// scan instead of single-threaded SFS-A: a tree lenient over scan(P).
func NewParallelHybrid(ds *data.Dataset, template *order.Preference, treeOpts ipotree.Options, partitions int) (Engine, error) {
	return NewByName("parallel-hybrid", ds, template, Options{Tree: treeOpts, Partitions: partitions})
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
		name := "IPO Tree"
		if opts.Tree.TopK > 0 {
			name = fmt.Sprintf("IPO Tree-%d", opts.Tree.TopK)
		}
		return newTree(&treeEngine{name: name, store: store, opts: opts.Tree, strict: true, parts: 1}, template)
	case "sfsa", "sfs-a":
		e, err := adaptive.NewFromStore(store, template)
		if err != nil {
			return nil, err
		}
		return &adaptiveEngine{e: e}, nil
	case "sfsd", "sfs-d":
		return &SFSD{name: "SFS-D", store: store, parts: 1}, nil
	case "hybrid":
		sfsa, err := adaptive.NewFromStore(store, template)
		if err != nil {
			return nil, err
		}
		return newTree(&treeEngine{name: "Hybrid", store: store, opts: opts.Tree, sfsa: sfsa}, template)
	case "parallel-sfs", "parallelsfs", "parallel sfs", "psfs":
		return &SFSD{name: "Parallel-SFS", store: store, parts: opts.Partitions}, nil
	case "parallel-hybrid", "parallelhybrid", "parallel hybrid", "phybrid":
		return newTree(&treeEngine{name: "Parallel-Hybrid", store: store, opts: opts.Tree, parts: opts.Partitions}, template)
	default:
		return nil, fmt.Errorf("core: unknown engine kind %q (want one of %s)",
			kind, strings.Join(Kinds(), ", "))
	}
}

// Interface conformance checks.
var (
	_ Engine          = (*treeEngine)(nil)
	_ Engine          = (*adaptiveEngine)(nil)
	_ Engine          = (*SFSD)(nil)
	_ Maintainer      = (*flat.Store)(nil)
	_ Maintainer      = (*adaptive.Engine)(nil)
	_ BatchMaintainer = (*flat.Store)(nil)
)
