// Snapshot is the versioned view of a point set: an immutable base Block, an
// append-only delta segment holding rows inserted since the base was laid
// out, and a tombstone bitset marking deleted rows. Snapshots are immutable —
// a mutation produces a new Snapshot sharing the base, the delta backing
// arrays (only ever appended to beyond every published snapshot's length) and
// the tombstone set (cloned copy-on-write by deletions) — so any number of
// readers can project and scan a snapshot while writers publish newer ones.
//
// Row coordinates are global: rows [0, BaseRows) live in the base block and
// rows [BaseRows, Rows) in the delta segment. Point ids are strictly
// ascending in row order (base blocks are compacted in id order and delta ids
// are assigned monotonically), which keeps id→row lookups a binary search and
// id remaps order-preserving.
package flat

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"prefsky/internal/bitset"
	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/order"
)

// ErrUnknownPoint reports a point id that does not name a live point: never
// assigned, or already deleted.
var ErrUnknownPoint = errors.New("flat: unknown or deleted point")

// Snapshot is one immutable version of a mutable point set. All methods are
// safe for any number of concurrent readers.
type Snapshot struct {
	base *Block

	// Delta segment: row i of the delta occupies dnum[i*m : (i+1)*m] and
	// dnom[i*l : (i+1)*l]; dids[i] is its point id. The backing arrays are
	// shared with other snapshots of the same store and appended to beyond
	// this snapshot's length — the slice headers pin the rows this version
	// sees.
	dnum []float64
	dnom []order.Value
	dids []data.PointID

	// dead marks tombstoned global rows; nil means none. Its capacity may
	// trail Rows() — rows beyond it are live (bitset.Contains is false past
	// the capacity).
	dead  *bitset.Set
	deadN int

	version uint64

	colsOnce sync.Once
	cols     *colSet // lazy base+delta column mirror + rank-column cache
}

// newSnapshot wraps a block as the initial (delta-free) snapshot.
func newSnapshot(base *Block) *Snapshot {
	return &Snapshot{base: base}
}

// Version is the store's mutation counter as of this snapshot. Compaction
// preserves the version: a compacted snapshot is query-equivalent to the
// base+delta+tombstones form it replaced, so results cached against the
// version stay valid.
func (s *Snapshot) Version() uint64 { return s.version }

// Schema returns the schema the snapshot's rows are laid out under.
func (s *Snapshot) Schema() *data.Schema { return s.base.schema }

// Base returns the immutable base block.
func (s *Snapshot) Base() *Block { return s.base }

// Rows returns the total row count, live and tombstoned.
func (s *Snapshot) Rows() int { return s.base.n + len(s.dids) }

// BaseRows returns the base block's row count.
func (s *Snapshot) BaseRows() int { return s.base.n }

// DeltaRows returns the delta segment's row count.
func (s *Snapshot) DeltaRows() int { return len(s.dids) }

// Tombstones returns the number of tombstoned rows.
func (s *Snapshot) Tombstones() int { return s.deadN }

// LiveN returns the number of live points.
func (s *Snapshot) LiveN() int { return s.Rows() - s.deadN }

// SizeBytes reports the snapshot's memory footprint (base matrices, delta
// segment, tombstone set).
func (s *Snapshot) SizeBytes() int {
	size := s.base.SizeBytes() + len(s.dnum)*8 + len(s.dnom)*4 + len(s.dids)*4
	if s.dead != nil {
		size += s.dead.SizeBytes()
	}
	return size
}

// deadRow reports whether the global row is tombstoned.
func (s *Snapshot) deadRow(row int) bool {
	return s.dead != nil && s.dead.Contains(row)
}

// ID returns the point id stored at the global row.
func (s *Snapshot) ID(row int32) data.PointID {
	if int(row) < s.base.n {
		return s.base.ids[row]
	}
	return s.dids[int(row)-s.base.n]
}

// rawRowOf resolves a point id to its global row without the liveness check.
// Ids ascend with rows in both the base and the delta, so each segment is
// one binary search.
func (s *Snapshot) rawRowOf(id data.PointID) (int32, bool) {
	if i, ok := slices.BinarySearch(s.base.ids, id); ok {
		return int32(i), true
	}
	if i, ok := slices.BinarySearch(s.dids, id); ok {
		return int32(s.base.n + i), true
	}
	return 0, false
}

// RowOf resolves a point id to its global row, reporting false for ids that
// were never assigned or are tombstoned.
func (s *Snapshot) RowOf(id data.PointID) (int32, bool) {
	row, ok := s.rawRowOf(id)
	if !ok || s.deadRow(int(row)) {
		return 0, false
	}
	return row, true
}

// Point materializes the live point with the given id. The returned slices
// alias the snapshot's immutable storage; callers must not mutate them.
func (s *Snapshot) Point(id data.PointID) (data.Point, error) {
	row, ok := s.RowOf(id)
	if !ok {
		return data.Point{}, fmt.Errorf("%w: %d", ErrUnknownPoint, id)
	}
	return s.pointAt(int(row)), nil
}

// pointAt materializes the point at a global row (caller checked liveness).
func (s *Snapshot) pointAt(row int) data.Point {
	m, l := s.base.numDims, s.base.nomDims
	if row < s.base.n {
		return data.Point{
			ID:  s.base.ids[row],
			Num: s.base.num[row*m : (row+1)*m : (row+1)*m],
			Nom: s.base.nom[row*l : (row+1)*l : (row+1)*l],
		}
	}
	i := row - s.base.n
	return data.Point{
		ID:  s.dids[i],
		Num: s.dnum[i*m : (i+1)*m : (i+1)*m],
		Nom: s.dnom[i*l : (i+1)*l : (i+1)*l],
	}
}

// Points materializes every live point in ascending id order. The points'
// Num/Nom slices alias the snapshot's immutable storage — callers may reorder
// the slice and reassign IDs (data.New does) but must not mutate the
// coordinate slices.
func (s *Snapshot) Points() []data.Point {
	out := make([]data.Point, 0, s.LiveN())
	for row := 0; row < s.Rows(); row++ {
		if s.deadRow(row) {
			continue
		}
		out = append(out, s.pointAt(row))
	}
	return out
}

// rowNum returns the numeric coordinates stored at a global row.
func (s *Snapshot) rowNum(row int32) []float64 {
	b := s.base
	m := b.numDims
	if int(row) >= b.n {
		i := (int(row) - b.n) * m
		return s.dnum[i : i+m]
	}
	i := int(row) * m
	return b.num[i : i+m]
}

// rowNom returns the nominal values stored at a global row.
func (s *Snapshot) rowNom(row int32) []order.Value {
	b := s.base
	l := b.nomDims
	if int(row) >= b.n {
		i := (int(row) - b.n) * l
		return s.dnom[i : i+l]
	}
	i := int(row) * l
	return b.nom[i : i+l]
}

// Project maps the snapshot through the comparator's rank tables: each
// nominal column of the lazily built base+delta mirror mapped once into a
// rank column (shared across preferences whose tables coincide), scores
// accumulated column-wise, with tombstoned rows excluded from every scan the
// projection runs. The comparator must have been built against the
// snapshot's schema.
func (s *Snapshot) Project(cmp *dominance.Comparator) (*Projection, error) {
	b := s.base
	tabs := cmp.RankTables()
	if len(tabs) != b.nomDims {
		return nil, fmt.Errorf("flat: comparator has %d nominal dimensions, snapshot has %d",
			len(tabs), b.nomDims)
	}
	return newProjection(b, s, s.columns(), tabs), nil
}

// ProjectRows ranks and scores only the given live global rows — the
// candidate-restricted projection of the semantic result cache: O(C·(m+l))
// for a candidate set of C rows instead of the full O(N·(m+l)) pass,
// gathered into local columns without touching the dense mirror. Local
// position i of the returned projection stands for global row rows[i];
// Dominates, Score, SortedRows and the skyline scans all operate in that
// local space and map back to point ids through ID/IDs. Every row must be in
// range and live (not tombstoned); the input slice is copied, not retained.
func (s *Snapshot) ProjectRows(cmp *dominance.Comparator, rows []int32) (*Projection, error) {
	b := s.base
	tabs := cmp.RankTables()
	if len(tabs) != b.nomDims {
		return nil, fmt.Errorf("flat: comparator has %d nominal dimensions, snapshot has %d",
			len(tabs), b.nomDims)
	}
	m, l := b.numDims, b.nomDims
	n := len(rows)
	pr := &Projection{
		b:        b,
		snap:     s,
		rows:     slices.Clone(rows),
		n:        n,
		numCols:  make([][]float64, m),
		nomCols:  make([][]order.Value, l),
		rankCols: make([][]int32, l),
		unlisted: unlistedRanks(b.schema),
		scores:   make([]float64, n),
	}
	numBack := make([]float64, n*m)
	for d := 0; d < m; d++ {
		pr.numCols[d] = numBack[d*n : (d+1)*n : (d+1)*n]
	}
	nomBack := make([]order.Value, n*l)
	rankBack := make([]int32, n*l)
	for d := 0; d < l; d++ {
		pr.nomCols[d] = nomBack[d*n : (d+1)*n : (d+1)*n]
		pr.rankCols[d] = rankBack[d*n : (d+1)*n : (d+1)*n]
	}
	for i, r := range pr.rows {
		if int(r) < 0 || int(r) >= s.Rows() {
			return nil, fmt.Errorf("flat: candidate row %d outside [0,%d)", r, s.Rows())
		}
		if s.deadRow(int(r)) {
			return nil, fmt.Errorf("flat: candidate row %d is tombstoned", r)
		}
		sum := 0.0
		for d, v := range s.rowNum(r) {
			pr.numCols[d][i] = v
			sum += v
		}
		for d, v := range s.rowNom(r) {
			rk := tabs[d][v]
			pr.nomCols[d][i] = v
			pr.rankCols[d][i] = rk
			sum += float64(rk)
		}
		pr.scores[i] = sum
	}
	return pr, nil
}
