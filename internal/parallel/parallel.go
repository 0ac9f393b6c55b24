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
	"runtime"
	"slices"
	"sync"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
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
