// Coarse grid pruning over a projection. The projected space — numeric
// coordinates plus §4.2 rank columns — is cut into a few thousand equi-width
// cells and each cell remembers its per-dimension minima over its rows. An
// SFS scan then tests whole cells against the accepted window: an accepted
// point s dominates every point of cell C when s is ≤ C's minimum on every
// dimension, strictly below it on at least one, and — on nominal
// dimensions — never ties C's minimum at the unlisted rank, where two
// distinct stored values are incomparable. Once a cell is marked dominated
// the scan skips its remaining candidates without a single pairwise test
// (the cell-skipping device the skyline surveys catalog, generalized to
// ranked nominal dimensions).
//
// Soundness: cell minima are lower bounds over all rows — tombstoned rows
// included — so they remain lower bounds for any scanned subset or range;
// the strictness requirement (some dimension strictly below the minimum)
// rules out s dominating itself or an equal point, and the unlisted-rank
// guard rules out claiming dominance over a cell member whose unlisted value
// merely differs from s's. See DESIGN.md for the full argument.
package flat

import (
	"fmt"
	"math"
	"sync/atomic"
)

// GridMode selects whether scans build and consult the cell grid.
type GridMode int8

const (
	// GridAuto builds the grid only for scans large enough to amortize it
	// (the default).
	GridAuto GridMode = iota
	// GridOn always builds the grid, regardless of scan size.
	GridOn
	// GridOff never builds the grid.
	GridOff
)

func (m GridMode) String() string {
	switch m {
	case GridAuto:
		return "auto"
	case GridOn:
		return "on"
	case GridOff:
		return "off"
	default:
		return fmt.Sprintf("GridMode(%d)", int8(m))
	}
}

// ParseGridMode resolves a grid mode name; "" means the default (auto).
func ParseGridMode(s string) (GridMode, error) {
	switch s {
	case "", "auto":
		return GridAuto, nil
	case "on", "true":
		return GridOn, nil
	case "off", "false":
		return GridOff, nil
	}
	return 0, fmt.Errorf("flat: unknown grid mode %q (want auto, on or off)", s)
}

const (
	// gridTargetCells aims the bucket split at roughly this many cells.
	gridTargetCells = 4096
	// gridMaxBucketsPerDim caps any single dimension's bucket count.
	gridMaxBucketsPerDim = 16
	// gridAutoMinScan is the smallest scan GridAuto builds a grid for.
	gridAutoMinScan = 4096
)

// GridStats is a counter snapshot of grid activity, surfaced through
// /v1/stats.
type GridStats struct {
	// Scans counts SFS scans that ran with a grid.
	Scans uint64 `json:"scans"`
	// RowsPruned counts candidates skipped because their cell was dominated.
	RowsPruned uint64 `json:"rows_pruned"`
	// CellsDominated counts cells marked wholly dominated.
	CellsDominated uint64 `json:"cells_dominated"`
}

// Sum adds another snapshot's counts into this one.
func (s *GridStats) Sum(o GridStats) {
	s.Scans += o.Scans
	s.RowsPruned += o.RowsPruned
	s.CellsDominated += o.CellsDominated
}

// GridCounters accumulates grid activity for one owner. Each Store carries
// its own set — scans over its snapshots land there, so /v1/stats can report
// grid work per dataset and a coordinator can aggregate shard stats without
// double counting — while projections built straight from a Block (no store)
// fall back to the shared process-wide default.
type GridCounters struct {
	scans      atomic.Uint64
	rowsPruned atomic.Uint64
	cellsDom   atomic.Uint64
}

// Read returns a point-in-time snapshot of the counters.
func (c *GridCounters) Read() GridStats {
	return GridStats{
		Scans:          c.scans.Load(),
		RowsPruned:     c.rowsPruned.Load(),
		CellsDominated: c.cellsDom.Load(),
	}
}

// defaultGridCounters receives grid activity from storeless projections
// (blocks projected directly, not through a Store).
var defaultGridCounters GridCounters

// ReadGridStats returns the process-wide default counters — the activity of
// projections not owned by any Store. Store-owned activity is reported by
// Store.GridStats.
func ReadGridStats() GridStats {
	return defaultGridCounters.Read()
}

// SetGridMode selects the projection's grid behavior. It must be called
// before the projection's first scan and is not safe to race with scans;
// engines set it right after projecting.
func (pr *Projection) SetGridMode(m GridMode) { pr.gridMode = m }

// grid is the immutable cell index of one projection: a cell id per row plus
// per-dimension minima per cell. Scan-local state (which cells the current
// window has dominated) lives in gridScan, so concurrent scans share one
// grid safely.
type grid struct {
	cells   int
	cellOf  []int32     // projection-local row → cell id
	numMin  [][]float64 // [numeric dim][cell] minimum coordinate
	rankMin [][]int32   // [nominal dim][cell] minimum rank
}

// gridFor returns the projection's grid, building it on the first qualifying
// scan: always under GridOn, never under GridOff, and only for scans of at
// least gridAutoMinScan rows under GridAuto (a candidate-subset scan of a
// few dozen rows would pay the O(N) build for nothing). Dense projections
// share built grids through their colSet, keyed by the rank-table
// fingerprint, so repeat preferences — and distinct preferences whose §4.2
// tables coincide — skip the build entirely. The build returns nil when no
// dimension has any spread, so callers must handle a nil grid even under
// GridOn.
func (pr *Projection) gridFor(scanLen int) *grid {
	switch pr.gridMode {
	case GridOff:
		return nil
	case GridAuto:
		if scanLen < gridAutoMinScan {
			return nil
		}
	}
	pr.gridOnce.Do(func() {
		if pr.cs != nil {
			pr.grid = pr.cs.cachedGrid(pr.gridKey, func() *grid { return buildGrid(pr) })
		} else {
			pr.grid = buildGrid(pr)
		}
	})
	return pr.grid
}

// buildGrid cuts the projected space into equi-width buckets per dimension —
// bucket counts chosen so the cell product stays near gridTargetCells — and
// computes per-cell minima over all of the projection's rows. Tombstoned
// rows are included deliberately: their minima only make cell dominance
// harder to claim (sound, conservative), and in exchange the grid depends on
// nothing but the columns, so one build serves every snapshot and scan
// subset sharing the colSet.
func buildGrid(pr *Projection) *grid {
	if pr.n == 0 {
		return nil
	}
	m, l := len(pr.numCols), len(pr.rankCols)

	// Per-dimension spread.
	numLo := make([]float64, m)
	numHi := make([]float64, m)
	for d, col := range pr.numCols {
		lo, hi := col[0], col[0]
		for _, v := range col {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		numLo[d], numHi[d] = lo, hi
	}
	rankLo := make([]int32, l)
	rankHi := make([]int32, l)
	for d, col := range pr.rankCols {
		lo, hi := col[0], col[0]
		for _, v := range col {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		rankLo[d], rankHi[d] = lo, hi
	}

	varying := 0
	for d := 0; d < m; d++ {
		if numHi[d] > numLo[d] && !math.IsInf(numHi[d]-numLo[d], 0) {
			varying++
		}
	}
	for d := 0; d < l; d++ {
		if rankHi[d] > rankLo[d] {
			varying++
		}
	}
	if varying == 0 {
		return nil
	}
	per := int(math.Floor(math.Pow(gridTargetCells, 1/float64(varying))))
	per = max(2, min(per, gridMaxBucketsPerDim))

	// Bucket counts per dimension (1 for degenerate dims) and the mixed-radix
	// strides that turn per-dimension bucket indices into one cell id.
	numB := make([]int, m)
	rankB := make([]int, l)
	cells := 1
	for d := 0; d < m; d++ {
		numB[d] = 1
		if numHi[d] > numLo[d] && !math.IsInf(numHi[d]-numLo[d], 0) {
			numB[d] = per
		}
		cells *= numB[d]
	}
	for d := 0; d < l; d++ {
		rankB[d] = 1
		if rankHi[d] > rankLo[d] {
			rankB[d] = min(per, int(rankHi[d]-rankLo[d])+1)
		}
		cells *= rankB[d]
	}
	if cells <= 1 {
		return nil
	}

	g := &grid{
		cells:   cells,
		cellOf:  make([]int32, pr.n),
		numMin:  make([][]float64, m),
		rankMin: make([][]int32, l),
	}
	for d := 0; d < m; d++ {
		mn := make([]float64, cells)
		for i := range mn {
			mn[i] = math.Inf(1)
		}
		g.numMin[d] = mn
	}
	for d := 0; d < l; d++ {
		mn := make([]int32, cells)
		for i := range mn {
			mn[i] = math.MaxInt32
		}
		g.rankMin[d] = mn
	}

	for r := 0; r < pr.n; r++ {
		cell := 0
		for d := 0; d < m; d++ {
			if b := numB[d]; b > 1 {
				v := pr.numCols[d][r]
				idx := int(float64(b) * (v - numLo[d]) / (numHi[d] - numLo[d]))
				if idx >= b {
					idx = b - 1
				}
				cell = cell*b + idx
			}
		}
		for d := 0; d < l; d++ {
			if b := rankB[d]; b > 1 {
				v := pr.rankCols[d][r]
				idx := b * int(v-rankLo[d]) / (int(rankHi[d]-rankLo[d]) + 1)
				cell = cell*b + idx
			}
		}
		g.cellOf[r] = int32(cell)
		for d := 0; d < m; d++ {
			if v := pr.numCols[d][r]; v < g.numMin[d][cell] {
				g.numMin[d][cell] = v
			}
		}
		for d := 0; d < l; d++ {
			if v := pr.rankCols[d][r]; v < g.rankMin[d][cell] {
				g.rankMin[d][cell] = v
			}
		}
	}
	return g
}

// dominatesCell reports whether the accepted point at row s dominates every
// live point of the cell: at or below the cell's minimum on all dimensions,
// strictly below on at least one, and never tying a nominal minimum at the
// unlisted rank (where distinct stored values are incomparable, so a tie
// cannot be claimed without looking at values).
func (pr *Projection) dominatesCell(g *grid, s int32, cell int) bool {
	strict := false
	for d, col := range pr.numCols {
		sv, mn := col[s], g.numMin[d][cell]
		if sv > mn {
			return false
		}
		if sv < mn {
			strict = true
		}
	}
	for d, col := range pr.rankCols {
		sv, mn := col[s], g.rankMin[d][cell]
		if sv > mn {
			return false
		}
		if sv < mn {
			strict = true
			continue
		}
		// sv == mn: a cell member at the minimum rank ties s. Below the
		// unlisted rank the tie names the same listed value; at it the
		// member may hold a different (incomparable) value, so the cell
		// cannot be claimed wholesale.
		if sv == pr.unlisted[d] {
			return false
		}
	}
	return strict
}

// gridScan is one scan's mutable view of a shared grid: which cells the
// accepted window has dominated so far, and — per cell — how many accepted
// points have already been tested against it, so each (cell, accepted point)
// pair is examined at most once across the whole scan.
type gridScan struct {
	g         *grid
	c         *GridCounters
	dominated []bool
	checked   []int32
	pruned    uint64
	marked    uint64
}

// newGridScan returns scan-local grid state, or nil when the scan runs
// without a grid.
func newGridScan(pr *Projection, scanLen int) *gridScan {
	g := pr.gridFor(scanLen)
	if g == nil {
		return nil
	}
	c := pr.counters
	if c == nil {
		c = &defaultGridCounters
	}
	c.scans.Add(1)
	return &gridScan{
		g:         g,
		c:         c,
		dominated: make([]bool, g.cells),
		checked:   make([]int32, g.cells),
	}
}

// skip reports whether candidate row r can be skipped because its cell is
// wholly dominated by the accepted window, advancing the cell's watermark
// over accepted points not yet tested against it.
func (st *gridScan) skip(pr *Projection, accepted []int32, r int32) bool {
	cell := st.g.cellOf[r]
	if !st.dominated[cell] {
		for int(st.checked[cell]) < len(accepted) {
			s := accepted[st.checked[cell]]
			st.checked[cell]++
			if pr.dominatesCell(st.g, s, int(cell)) {
				st.dominated[cell] = true
				st.marked++
				break
			}
		}
	}
	if st.dominated[cell] {
		st.pruned++
		return true
	}
	return false
}

// flush publishes the scan's counters; safe on a nil receiver.
func (st *gridScan) flush() {
	if st == nil {
		return
	}
	if st.pruned > 0 {
		st.c.rowsPruned.Add(st.pruned)
	}
	if st.marked > 0 {
		st.c.cellsDom.Add(st.marked)
	}
}
