// Package parallel computes skylines by divide-and-conquer partitioning: the
// dataset's rank projection is split into P row ranges, each range's local
// skyline is computed concurrently with the flat SFS scan, and the partial
// skylines are merge-filtered into the global result. It is the multi-core counterpart
// of the SFS-D baseline and composes with the variable-preference model of
// Wong et al. because every partition shares one dominance comparator per
// canonical preference.
//
// Correctness of the merge-filter rests on two facts:
//
//  1. Local dominance implies global candidacy: if p is dominated by some q
//     in its own block, p is not in the global skyline, so the global skyline
//     is a subset of the union of the local skylines.
//  2. Checking local survivors suffices: if any q in block B' dominates p,
//     then either q is in SKY(B') or some q' in SKY(B') dominates q, and
//     dominance is transitive, so q' dominates p too. Hence p is globally
//     non-dominated iff no *local skyline point* of another block dominates
//     it.
//
// Every phase honors the query context: block scans poll it between yielded
// skyline points, and the merge phase polls it between candidates, so a
// canceled request (client disconnect, deadline) stops burning cores early.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/ipotree"
	"prefsky/internal/order"
)

// minAutoBlock is the smallest block a *defaulted* partition count will
// produce: below this the per-goroutine and merge overheads outweigh the
// parallel scan. Explicit partition counts are honored exactly (capped at N)
// so tests can exercise multi-block execution on small datasets.
const minAutoBlock = 512

// normalize resolves the effective partition count for n points.
func normalize(n, partitions int) int {
	if partitions <= 0 {
		partitions = runtime.GOMAXPROCS(0)
		if max := n / minAutoBlock; partitions > max {
			partitions = max
		}
	}
	if partitions > n {
		partitions = n
	}
	if partitions < 1 {
		partitions = 1
	}
	return partitions
}

// collectSurvivors flattens the per-block survivor lists into one ascending
// id slice.
func collectSurvivors(survivors [][]data.PointID) []data.PointID {
	total := 0
	for _, s := range survivors {
		total += len(s)
	}
	out := make([]data.PointID, 0, total)
	for _, s := range survivors {
		out = append(out, s...)
	}
	slices.Sort(out)
	return out
}

// SkylineProjected computes the partitioned skyline on the flat kernel: the
// caller projects the whole block once (O(N·l)) and the partitions become
// plain row ranges over the shared projection — no per-block rescoring, no
// per-block rank lookups, and the merge-filter prunes on the same
// precomputed score array. Results are identical to skyline.SFS over the
// block's points.
func SkylineProjected(ctx context.Context, proj *flat.Projection, partitions int) ([]data.PointID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	n := proj.N()
	partitions = normalize(n, partitions)
	if partitions <= 1 {
		rows, err := proj.SkylineRangeCtx(ctx, 0, n)
		if err != nil {
			return nil, err
		}
		return proj.IDs(rows), nil
	}

	// Phase 1: concurrent flat SFS per row range, all sharing one projection.
	locals := make([][]int32, partitions)
	errs := make([]error, partitions)
	var wg sync.WaitGroup
	for i := 0; i < partitions; i++ {
		lo, hi := i*n/partitions, (i+1)*n/partitions
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			locals[i], errs[i] = proj.SkylineRangeCtx(ctx, lo, hi)
		}(i, lo, hi)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}

	// Phase 2: concurrent merge-filter over the shared projection.
	survivors := make([][]data.PointID, partitions)
	for i := range locals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			survivors[i], errs[i] = flatMergeFilter(ctx, proj, i, locals)
		}(i)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return collectSurvivors(survivors), nil
}

// flatMergeFilter keeps the rows of locals[i] not dominated by any local
// skyline row of another range. Local skylines are ascending in f and only
// strictly smaller scores can dominate, so each cross-scan stops at the
// candidate's own score.
func flatMergeFilter(ctx context.Context, proj *flat.Projection, i int, locals [][]int32) ([]data.PointID, error) {
	var out []data.PointID
	scores := proj.Scores()
	for c, r := range locals[i] {
		if c&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		score := scores[r]
		dominated := false
		for j := range locals {
			if j == i {
				continue
			}
			for _, q := range locals[j] {
				if scores[q] >= score {
					break
				}
				if proj.Dominates(q, r) {
					dominated = true
					break
				}
			}
			if dominated {
				break
			}
		}
		if !dominated {
			out = append(out, proj.ID(r))
		}
	}
	return out, nil
}

// Local is one block's local skyline in ascending f order plus the matching
// §4.1 scores, the merge phase's pruning key. The coordinator of the
// distributed serving tier decodes remote shard partials into this form and
// merges them with MergeLocals — shard-local scores are globally comparable
// because every shard scores under the same canonical preference.
type Local struct {
	Points []data.Point
	Scores []float64
}

// MergeLocals merge-filters local skylines into the global skyline: a point
// of locals[i] survives iff no local skyline point of another block dominates
// it (see the package comment for why that check is complete). Each block's
// filter runs concurrently and prunes on the shared score prefix. Inputs must
// be local skylines sorted ascending by score with scores[k] = f(points[k]);
// the result is ascending point ids. Point ids must be globally unique across
// blocks.
func MergeLocals(ctx context.Context, cmp *dominance.Comparator, locals []Local) ([]data.PointID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	live := 0
	for i := range locals {
		if len(locals[i].Points) > 0 {
			live++
		}
	}
	if live <= 1 {
		for i := range locals {
			if len(locals[i].Points) > 0 {
				out := make([]data.PointID, len(locals[i].Points))
				for k := range locals[i].Points {
					out[k] = locals[i].Points[k].ID
				}
				slices.Sort(out)
				return out, nil
			}
		}
		return nil, nil
	}
	survivors := make([][]data.PointID, len(locals))
	errs := make([]error, len(locals))
	var wg sync.WaitGroup
	for i := range locals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			survivors[i], errs[i] = mergeFilter(ctx, cmp, i, locals)
		}(i)
	}
	wg.Wait()
	if err := firstError(errs); err != nil {
		return nil, err
	}
	return collectSurvivors(survivors), nil
}

// mergeFilter keeps the points of locals[i] not dominated by any local
// skyline point of another block, polling the context between candidates.
// Because p ≺ q implies f(p) < f(q) (§4.1's monotone scoring), only points
// with a strictly smaller score can dominate a candidate, and each local
// skyline is ascending in f — so the scan of every other block stops at the
// candidate's own score.
func mergeFilter(ctx context.Context, cmp *dominance.Comparator, i int, locals []Local) ([]data.PointID, error) {
	var out []data.PointID
	for c := range locals[i].Points {
		if c&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		p := &locals[i].Points[c]
		score := locals[i].Scores[c]
		dominated := false
		for j := range locals {
			if j == i {
				continue
			}
			other := &locals[j]
			for q := range other.Points {
				if other.Scores[q] >= score {
					break
				}
				if cmp.Dominates(&other.Points[q], p) {
					dominated = true
					break
				}
			}
			if dominated {
				break
			}
		}
		if !dominated {
			out = append(out, p.ID)
		}
	}
	return out, nil
}

// firstError returns the first non-nil error, preferring non-context errors
// so a real failure is not masked by sibling blocks observing cancellation.
func firstError(errs []error) error {
	var ctxErr error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if ctxErr == nil {
				ctxErr = err
			}
			continue
		}
		return err
	}
	return ctxErr
}

// Engine is the "parallel-sfs" core engine: SFS-D divided over P blocks per
// query. It needs no per-preference preprocessing; it reads a versioned
// columnar store (a mirror of the base data, not an index — SizeBytes stays
// zero like SFS-D), so each query grabs the current snapshot lock-free, pays
// only the O(N·l) rank projection shared by all partitions, and never blocks
// behind Insert/Delete writers. It is safe for concurrent use.
type Engine struct {
	store *flat.Store
	parts int

	queries atomic.Uint64
}

// New wraps a dataset as a partitioned SFS engine over a private versioned
// store. partitions <= 0 defaults to GOMAXPROCS at query time.
func New(ds *data.Dataset, partitions int) (*Engine, error) {
	if ds == nil {
		return nil, fmt.Errorf("parallel: nil dataset")
	}
	return NewFromStore(flat.NewStore(ds, 0), partitions)
}

// NewFromStore wraps an existing versioned store as a partitioned SFS engine
// — the form the service registry uses, so maintenance and queries share one
// snapshot-swapped point set.
func NewFromStore(store *flat.Store, partitions int) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("parallel: nil store")
	}
	return &Engine{store: store, parts: partitions}, nil
}

// Partitions returns the configured partition count (0 = GOMAXPROCS).
func (e *Engine) Partitions() int { return e.parts }

// Store returns the versioned store the engine reads.
func (e *Engine) Store() *flat.Store { return e.store }

// Skyline answers SKY(pref) with the partitioned scan over the current
// snapshot.
func (e *Engine) Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error) {
	e.queries.Add(1)
	snap := e.store.Snapshot()
	cmp, err := dominance.NewComparator(snap.Schema(), pref)
	if err != nil {
		return nil, err
	}
	proj, err := snap.Project(cmp)
	if err != nil {
		return nil, err
	}
	return SkylineProjected(ctx, proj, e.parts)
}

// SizeBytes reports zero: like SFS-D the engine keeps no index. The columnar
// store is an alternate representation of the dataset itself (reported by
// BlockBytes), not preference-dependent storage in the paper's §5 sense.
func (e *Engine) SizeBytes() int { return 0 }

// BlockBytes reports the columnar store's footprint.
func (e *Engine) BlockBytes() int { return e.store.Snapshot().SizeBytes() }

// Queries returns the number of Skyline calls served.
func (e *Engine) Queries() uint64 { return e.queries.Load() }

// Stats counts how Hybrid queries were routed.
type Stats struct {
	TreeHits  int64
	Fallbacks int64
}

// Hybrid is the "parallel-hybrid" engine: a (typically top-K restricted)
// IPO-tree answers queries over materialized values instantly, and queries
// naming unmaterialized values fall back to the partitioned scan instead of
// the single-threaded SFS-A fallback of internal/hybrid — the slow path is
// exactly where multi-core helps.
//
// Both halves read one versioned store: the tree is
// version-gated (it answers only while the snapshot version matches its
// build), mutations route every query to the partitioned scan over the live
// snapshot, and compaction rebuilds the tree in the background.
type Hybrid struct {
	template *order.Preference
	treeOpts ipotree.Options
	vt       atomic.Pointer[ipotree.Versioned]
	par      *Engine

	treeHits  atomic.Int64
	fallbacks atomic.Int64
}

// NewHybrid builds the tree and the partitioned fallback over one dataset's
// private versioned store.
func NewHybrid(ds *data.Dataset, template *order.Preference, treeOpts ipotree.Options, partitions int) (*Hybrid, error) {
	if ds == nil {
		return nil, fmt.Errorf("parallel: nil dataset")
	}
	return NewHybridFromStore(flat.NewStore(ds, 0), template, treeOpts, partitions)
}

// NewHybridFromStore builds the parallel hybrid against an existing
// versioned store — the service-registry form — and registers the compaction
// hook that rebuilds the tree.
func NewHybridFromStore(store *flat.Store, template *order.Preference, treeOpts ipotree.Options, partitions int) (*Hybrid, error) {
	if store == nil {
		return nil, fmt.Errorf("parallel: nil store")
	}
	snap := store.Snapshot()
	tree, ids, err := ipotree.BuildPoints(store.Schema(), snap.Points(), template, treeOpts)
	if err != nil {
		return nil, fmt.Errorf("parallel: building tree: %w", err)
	}
	par, err := NewFromStore(store, partitions)
	if err != nil {
		return nil, err
	}
	h := &Hybrid{template: tree.Template(), treeOpts: treeOpts, par: par}
	h.vt.Store(ipotree.NewVersioned(tree, snap.Version(), ids))
	store.OnCompact(h.rebuildTree)
	return h, nil
}

// rebuildTree is the compaction hook: rebuild the version-gated tree against
// the compacted snapshot (ipotree.RebuildInto).
func (h *Hybrid) rebuildTree(snap *flat.Snapshot) {
	ipotree.RebuildInto(&h.vt, snap, h.template, h.treeOpts)
}

// Skyline answers with the tree when it is current and every queried value is
// materialized, and with the partitioned scan otherwise.
func (h *Hybrid) Skyline(ctx context.Context, pref *order.Preference) ([]data.PointID, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vt := h.vt.Load()
	if vt.Version() == h.par.Store().Version() {
		ids, err := vt.Query(pref)
		if err == nil {
			h.treeHits.Add(1)
			return ids, nil
		}
		if !errors.Is(err, ipotree.ErrNotMaterialized) {
			return nil, err
		}
	} else if err := vt.Tree().Validate(pref); err != nil {
		// The tree is stale, but a query the tree would reject must not start
		// succeeding just because maintenance happened.
		return nil, err
	}
	h.fallbacks.Add(1)
	return h.par.Skyline(ctx, pref)
}

// ValidatePreference reports the error Skyline would return for the
// preference without running it: the tree's shape and template-refinement
// checks (the same gate the stale path applies), with unmaterialized values
// accepted — they fall back to the partitioned scan.
func (h *Hybrid) ValidatePreference(pref *order.Preference) error {
	return h.vt.Load().Tree().Validate(pref)
}

// Store returns the versioned store both halves read.
func (h *Hybrid) Store() *flat.Store { return h.par.Store() }

// Tree exposes the current IPO-tree build (metrics, tests).
func (h *Hybrid) Tree() *ipotree.Tree { return h.vt.Load().Tree() }

// Stats returns the routing counters.
func (h *Hybrid) Stats() Stats {
	return Stats{TreeHits: h.treeHits.Load(), Fallbacks: h.fallbacks.Load()}
}

// SizeBytes reports the tree's storage; the fallback keeps nothing.
func (h *Hybrid) SizeBytes() int { return h.Tree().SizeBytes() }
