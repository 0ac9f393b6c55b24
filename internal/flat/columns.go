// Column-major mirrors of a row space, shared across projections. A colSet is
// built lazily (once per Block, once per Snapshot spanning a delta) and holds
// the preference-independent pieces every projection needs: one contiguous
// column per numeric dimension, one per nominal dimension, the per-row sum of
// the numeric columns, and two bounded caches keyed by rank-table contents:
// rank columns — so preferences sharing a rank table on a dimension (and
// repeat queries at the same version) share the mapped []int32 column instead
// of re-projecting it — and full-range presort permutations.
package flat

import (
	"encoding/binary"
	"sync"

	"prefsky/internal/order"
)

// maxCachedRankCols bounds the per-colSet rank-column cache; past it new
// columns are computed but not retained, so a stream of never-repeating
// preferences cannot grow a snapshot's footprint without bound.
const maxCachedRankCols = 64

// maxCachedSorts bounds the per-colSet presort-permutation cache.
const maxCachedSorts = 8

// colSet is the column-major mirror of one row space (a block, or a
// snapshot's base+delta). Immutable after build except for the two caches,
// which are mutex-guarded; all methods are safe for concurrent readers.
type colSet struct {
	n   int
	num [][]float64     // one column of length n per numeric dimension
	nom [][]order.Value // one column of length n per nominal dimension

	numSumOnce sync.Once
	numSum     []float64 // per-row sum of the numeric columns (dim order)

	mu    sync.Mutex
	ranks map[string][]int32 // (dim, rank table) fingerprint → rank column
	sorts map[string][]int32 // all-dimension table fingerprint → presort order
}

// newColSet allocates an empty column set with contiguous backing arrays.
func newColSet(n, m, l int) *colSet {
	cs := &colSet{n: n, num: make([][]float64, m), nom: make([][]order.Value, l)}
	numBack := make([]float64, n*m)
	for d := 0; d < m; d++ {
		cs.num[d] = numBack[d*n : (d+1)*n : (d+1)*n]
	}
	nomBack := make([]order.Value, n*l)
	for d := 0; d < l; d++ {
		cs.nom[d] = nomBack[d*n : (d+1)*n : (d+1)*n]
	}
	return cs
}

// fill transposes one row-major segment into the columns at row offset off.
func (cs *colSet) fill(num []float64, nom []order.Value, m, l, n, off int) {
	for d := 0; d < m; d++ {
		col := cs.num[d]
		for i := 0; i < n; i++ {
			col[off+i] = num[i*m+d]
		}
	}
	for d := 0; d < l; d++ {
		col := cs.nom[d]
		for i := 0; i < n; i++ {
			col[off+i] = nom[i*l+d]
		}
	}
}

// numScores returns the per-row sum of the numeric columns, accumulated in
// dimension order (the same addition order the row-major projection used, so
// float results are bit-identical). The slice is shared; callers must not
// mutate it.
func (cs *colSet) numScores() []float64 {
	cs.numSumOnce.Do(func() {
		sum := make([]float64, cs.n)
		for _, col := range cs.num {
			for i, v := range col {
				sum[i] += v
			}
		}
		cs.numSum = sum
	})
	return cs.numSum
}

// tableKey fingerprints one dimension's rank table: two preferences whose
// §4.2 tables coincide on the dimension map to the same key and share the
// cached column.
func tableKey(d int, tab []int32) string {
	b := make([]byte, 0, 8+len(tab)*2)
	b = binary.AppendUvarint(b, uint64(d))
	for _, r := range tab {
		b = binary.AppendUvarint(b, uint64(r))
	}
	return string(b)
}

// rankColumn returns the column of dimension d's stored values mapped through
// the rank table, serving it from the cache when an equal table was projected
// before. Callers must not mutate the returned slice. The mapping runs
// outside the lock; a racing duplicate computation is harmless and the first
// stored column wins.
func (cs *colSet) rankColumn(d int, tab []int32) []int32 {
	key := tableKey(d, tab)
	cs.mu.Lock()
	if col, ok := cs.ranks[key]; ok {
		cs.mu.Unlock()
		return col
	}
	cs.mu.Unlock()

	col := make([]int32, cs.n)
	vals := cs.nom[d]
	for i, v := range vals {
		col[i] = tab[v]
	}

	cs.mu.Lock()
	defer cs.mu.Unlock()
	if prev, ok := cs.ranks[key]; ok {
		return prev
	}
	if cs.ranks == nil {
		cs.ranks = make(map[string][]int32)
	}
	if len(cs.ranks) < maxCachedRankCols {
		cs.ranks[key] = col
	}
	return col
}

// cachedSort returns the full-range presort permutation — all rows ascending
// by (score bits, row) — for the given table fingerprint, building it with
// build on the first request. Scores are a pure function of the rank tables,
// so the permutation is shared exactly like rank columns; it covers all rows
// (tombstones included) and callers filter dead rows per snapshot. The
// returned slice is shared and must not be mutated.
func (cs *colSet) cachedSort(key string, build func() []int32) []int32 {
	cs.mu.Lock()
	if p, ok := cs.sorts[key]; ok {
		cs.mu.Unlock()
		return p
	}
	cs.mu.Unlock()

	p := build()

	cs.mu.Lock()
	defer cs.mu.Unlock()
	if prev, ok := cs.sorts[key]; ok {
		return prev
	}
	if cs.sorts == nil {
		cs.sorts = make(map[string][]int32)
	}
	if len(cs.sorts) < maxCachedSorts {
		cs.sorts[key] = p
	}
	return p
}

// columns returns the block's lazily built column mirror.
func (b *Block) columns() *colSet {
	b.colsOnce.Do(func() {
		cs := newColSet(b.n, b.numDims, b.nomDims)
		cs.fill(b.num, b.nom, b.numDims, b.nomDims, b.n, 0)
		b.cols = cs
	})
	return b.cols
}

// columns returns the snapshot's column mirror over base+delta. A delta-free
// snapshot shares the base block's colSet — and with it the rank-column
// cache — so block-level and snapshot-level queries pool their columns.
func (s *Snapshot) columns() *colSet {
	s.colsOnce.Do(func() {
		if len(s.dids) == 0 {
			s.cols = s.base.columns()
			return
		}
		b := s.base
		cs := newColSet(s.Rows(), b.numDims, b.nomDims)
		cs.fill(b.num, b.nom, b.numDims, b.nomDims, b.n, 0)
		cs.fill(s.dnum, s.dnom, b.numDims, b.nomDims, len(s.dids), b.n)
		s.cols = cs
	})
	return s.cols
}
