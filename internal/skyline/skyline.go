// Package skyline implements the classic full-space skyline algorithms the
// paper builds on and compares against: a naive O(n²) reference, block nested
// loop (BNL, Borzsonyi et al.), and sort-first skyline (SFS, Chomicki et al.).
// Running SFS on the whole dataset with the query's preference is the paper's
// SFS-D baseline.
//
// All batch functions return skyline point ids in ascending id order, the
// canonical form used for the set operations of the IPO-tree.
package skyline

import (
	"slices"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
)

// Dominator is the dominance test shared by all algorithms; both
// dominance.Comparator and dominance.POComparator satisfy it.
type Dominator interface {
	Dominates(p, q *data.Point) bool
}

// Naive computes the skyline by checking every pair. It is the reference
// implementation used to validate the faster algorithms.
func Naive(points []data.Point, dom Dominator) []data.PointID {
	out := make([]data.PointID, 0, 64)
	for i := range points {
		dominated := false
		for j := range points {
			if i != j && dom.Dominates(&points[j], &points[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, points[i].ID)
		}
	}
	sortIDs(out)
	return out
}

// BNL computes the skyline with a block-nested-loop over an in-memory window.
// Each point is compared against the window; dominated candidates are dropped
// and window members dominated by the candidate are evicted.
func BNL(points []data.Point, dom Dominator) []data.PointID {
	window := make([]*data.Point, 0, 64)
	for i := range points {
		p := &points[i]
		dominated := false
		keep := window[:0]
		for _, w := range window {
			if dominated {
				keep = append(keep, w)
				continue
			}
			if dom.Dominates(w, p) {
				dominated = true
				keep = append(keep, w)
				continue
			}
			if !dom.Dominates(p, w) {
				keep = append(keep, w)
			}
		}
		window = keep
		if !dominated {
			window = append(window, p)
		}
	}
	out := make([]data.PointID, len(window))
	for i, w := range window {
		out[i] = w.ID
	}
	sortIDs(out)
	return out
}

// SFS computes the skyline by presorting on the monotone preference function
// f and scanning (§4.1). Because p ≺ q implies f(p) < f(q), a candidate can
// only be dominated by points already accepted, so every accepted point is
// final (the progressive property).
func SFS(points []data.Point, cmp *dominance.Comparator) []data.PointID {
	it := NewIterator(points, cmp)
	out := make([]data.PointID, 0, 64)
	for {
		p, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, p.ID)
	}
	sortIDs(out)
	return out
}

// Iterator yields skyline points progressively in ascending f order, the
// behavior §4.3 highlights: every yielded point is definitely in the skyline.
type Iterator struct {
	points   []data.Point
	ord      []int32 // indices into points, sorted by (score, id)
	next     int
	cmp      *dominance.Comparator
	accepted []*data.Point
}

// iterKey packs one point's presort key — score bits then point id — so the
// presort is a branch-cheap compare over contiguous 16-byte keys instead of a
// closure re-indexing two slices per comparison.
type iterKey struct {
	bits uint64
	id   data.PointID
	row  int32
}

// NewIterator presorts the points by f (O(N log N)) and prepares the scan.
func NewIterator(points []data.Point, cmp *dominance.Comparator) *Iterator {
	keys := make([]iterKey, len(points))
	for i := range points {
		keys[i] = iterKey{
			bits: flat.ScoreBits(cmp.Score(&points[i])),
			id:   points[i].ID,
			row:  int32(i),
		}
	}
	slices.SortFunc(keys, func(a, b iterKey) int {
		if c := flat.CompareScoreKeys(a.bits, b.bits, a.id, b.id); c != 0 {
			return c
		}
		// Duplicate ids (arbitrary point slices): fall back to input order.
		return int(a.row) - int(b.row)
	})
	ord := make([]int32, len(keys))
	for i, k := range keys {
		ord[i] = k.row
	}
	return &Iterator{points: points, ord: ord, cmp: cmp}
}

// Next returns the next skyline point. The second result is false when the
// scan is complete.
func (it *Iterator) Next() (data.Point, bool) {
	for it.next < len(it.ord) {
		p := &it.points[it.ord[it.next]]
		it.next++
		dominated := false
		for _, s := range it.accepted {
			if it.cmp.Dominates(s, p) {
				dominated = true
				break
			}
		}
		if !dominated {
			it.accepted = append(it.accepted, p)
			return *p, true
		}
	}
	return data.Point{}, false
}

// Filter returns the points whose ids appear in ids, in the order of ids.
// points must be indexed by id (points[i].ID == i).
func Filter(points []data.Point, ids []data.PointID) []data.Point {
	out := make([]data.Point, 0, len(ids))
	for _, id := range ids {
		out = append(out, points[id])
	}
	return out
}

func sortIDs(ids []data.PointID) {
	slices.Sort(ids)
}
