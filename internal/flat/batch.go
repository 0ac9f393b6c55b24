// Batch-vectorized execution: answer all B preferences of one request in a
// single pass over the columns instead of B independent scans.
//
// The shared scan runs under the batch's meet — the coarsest preference every
// member refines (order.Meet). Refinement only adds dominance pairs, so a row
// dominated under the meet is dominated under every member and belongs to no
// member's skyline: SKY(p) ⊆ SKY(meet) for each member p. The scan therefore
// presorts once by the meet score, maintains one meet window (a proper SFS
// window — the meet score is strictly monotone under meet dominance, so it
// only ever appends), and feeds each meet survivor to one lightweight window
// per member.
//
// The member windows cannot be append-only: rows arrive in *meet*-score
// order, under which a member's dominance is only weakly monotone (x ≺_p y
// guarantees f_meet(x) ≤ f_meet(y), not <) — a member-dominating row can
// arrive after its victim on a meet-score tie. Each member window therefore
// runs block-nested-loops (test both directions, evict dominated members),
// which computes the exact maxima of the fed set in any arrival order. Fed
// set = SKY(meet) ⊇ SKY(p), maxima under p of a superset of SKY(p) whose
// extra rows are all p-dominated = SKY(p) exactly.
//
// Member windows share the projection's numeric and stored-value columns and
// draw their rank columns from the snapshot's cache, so a member whose rank
// tables coincide with the meet's (or another member's) on a dimension adds
// no projection work at all.
package flat

import (
	"context"
	"errors"
	"fmt"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/order"
)

// ErrBatchWindow reports a batch whose meet window outgrew batchMeetWindowCap
// — the members share too little structure for a shared scan to beat B
// independent scans. Callers fall back to the per-preference path.
var ErrBatchWindow = errors.New("flat: batch meet skyline exceeds the shared-scan cap")

// batchMeetWindowCap bounds the meet window: past it the per-member
// block-nested-loops work would dwarf the savings of sharing the scan.
const batchMeetWindowCap = 1 << 14

// batchView is one member's dominance view over the shared scan: the member's
// rank columns plus the shared stored-value columns, no per-member scores.
type batchView struct {
	numCols  [][]float64
	nomCols  [][]order.Value
	rankCols [][]int32
	unlisted []int32
}

// dominates is Projection.Dominates under the member's rank columns.
func (v *batchView) dominates(i, j int32) bool {
	strict := false
	for _, col := range v.numCols {
		pv, qv := col[i], col[j]
		if pv > qv {
			return false
		}
		if pv < qv {
			strict = true
		}
	}
	for d, col := range v.rankCols {
		pv, qv := col[i], col[j]
		if pv < qv {
			strict = true
			continue
		}
		if pv > qv {
			return false
		}
		if pv == v.unlisted[d] {
			nc := v.nomCols[d]
			if nc[i] != nc[j] {
				return false
			}
		}
	}
	return strict
}

// bnlInsert feeds row r to the member's block-nested-loops window: r is
// dropped if any window row dominates it, window rows r dominates are
// evicted, and r joins otherwise. The window is always the maxima of the
// rows fed so far, in any feed order.
func (v *batchView) bnlInsert(window []int32, r int32) []int32 {
	keep := window[:0]
	dominated := false
	for _, w := range window {
		if dominated {
			keep = append(keep, w)
			continue
		}
		if v.dominates(w, r) {
			dominated = true
			keep = append(keep, w)
			continue
		}
		if !v.dominates(r, w) {
			keep = append(keep, w)
		}
	}
	if dominated {
		return keep
	}
	return append(keep, r)
}

// SkylineBatch answers every preference's skyline over the snapshot in one
// shared pass (see the file comment above for the argument). Results come
// back positionally, each in ascending point-id order — identical to running
// Project + SkylineRange + IDs per preference. The GridMode parameter is
// ignored (see compat.go). It returns ErrBatchWindow when the members share
// too little structure for the shared scan to pay; callers then fall back to
// independent queries.
func (s *Snapshot) SkylineBatch(ctx context.Context, prefs []*order.Preference, _ GridMode) ([][]data.PointID, error) {
	if len(prefs) == 0 {
		return nil, nil
	}
	meet, err := order.Meet(prefs)
	if err != nil {
		return nil, err
	}
	meetCmp, err := dominance.NewComparator(s.Schema(), meet)
	if err != nil {
		return nil, err
	}
	proj, err := s.Project(meetCmp)
	if err != nil {
		return nil, err
	}

	cs := s.columns()
	views := make([]batchView, len(prefs))
	for k, p := range prefs {
		if p == nil {
			return nil, fmt.Errorf("flat: batch preference %d is nil", k)
		}
		cmp, err := dominance.NewComparator(s.Schema(), p)
		if err != nil {
			return nil, err
		}
		tabs := cmp.RankTables()
		v := batchView{
			numCols:  proj.numCols,
			nomCols:  proj.nomCols,
			rankCols: make([][]int32, len(tabs)),
			unlisted: proj.unlisted,
		}
		for d, tab := range tabs {
			v.rankCols[d] = cs.rankColumn(d, tab)
		}
		views[k] = v
	}

	rows := proj.SortedRows(0, proj.N())
	meetWin := make([]int32, 0, 64)
	wins := make([][]int32, len(prefs))
	for c, r := range rows {
		if c&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		dominated := false
		for _, w := range meetWin {
			if proj.Dominates(w, r) {
				dominated = true
				break
			}
		}
		if dominated {
			continue
		}
		meetWin = append(meetWin, r)
		if len(meetWin) > batchMeetWindowCap {
			return nil, ErrBatchWindow
		}
		for k := range views {
			wins[k] = views[k].bnlInsert(wins[k], r)
		}
	}

	out := make([][]data.PointID, len(prefs))
	for k, w := range wins {
		out[k] = proj.IDs(w)
	}
	return out, nil
}
