// Package flat is the columnar dominance kernel: the cache-friendly layout
// every engine's inner loop runs on. A dataset is laid out once as a Block —
// one contiguous row-major []float64 numeric matrix and one contiguous
// []order.Value nominal matrix, stride-indexed, mirrored lazily into
// per-dimension columns (columns.go) — and each query maps each nominal
// column once through the comparator's rank table (§4.2) into its own
// contiguous []int32 rank column. Scores, the dominance test and the SFS
// presort all read column-wise, and preferences whose rank tables coincide on
// a dimension share the mapped column through a per-block/per-snapshot cache.
// After projection the dominance test touches only sequential int32/float64
// memory: no per-point slice headers, no rank-table re-indexing, no pointer
// chasing. A snapshot can also answer a whole batch of preferences in one
// shared pass (batch.go).
//
// The projection preserves the paper's incomparability rule for unlisted
// values: two distinct unlisted values share rank k (the domain cardinality)
// but remain incomparable, so the flat test treats equal ranks over *distinct*
// stored values as "does not dominate" — exactly dominance.Comparator's
// semantics (see the property suite proving flat ≡ Comparator ≡ POComparator).
package flat

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/order"
)

// Block is the immutable columnar layout of a point set: row i of the dataset
// occupies num[i*numDims : (i+1)*numDims] and nom[i*nomDims : (i+1)*nomDims].
// It is built once — at dataset load or service registration — and shared by
// every query; all methods are safe for concurrent readers.
type Block struct {
	n       int
	numDims int
	nomDims int
	num     []float64      // n × numDims, row-major
	nom     []order.Value  // n × nomDims, row-major
	ids     []data.PointID // point id per row
	schema  *data.Schema

	colsOnce sync.Once
	cols     *colSet // lazy column-major mirror + rank-column cache
}

// FromPoints lays the points out columnar under the schema. The points are
// copied into the matrices; the slice itself is not retained.
func FromPoints(schema *data.Schema, points []data.Point) (*Block, error) {
	if schema == nil {
		return nil, fmt.Errorf("flat: nil schema")
	}
	m, l := schema.NumDims(), schema.NomDims()
	b := &Block{
		n:       len(points),
		numDims: m,
		nomDims: l,
		num:     make([]float64, len(points)*m),
		nom:     make([]order.Value, len(points)*l),
		ids:     make([]data.PointID, len(points)),
		schema:  schema,
	}
	for i := range points {
		p := &points[i]
		if len(p.Num) != m || len(p.Nom) != l {
			return nil, fmt.Errorf("flat: point %d has %d/%d dims, schema has %d/%d",
				i, len(p.Num), len(p.Nom), m, l)
		}
		copy(b.num[i*m:], p.Num)
		copy(b.nom[i*l:], p.Nom)
		b.ids[i] = p.ID
	}
	return b, nil
}

// NewBlock lays a validated dataset out columnar; row i is point id i.
func NewBlock(ds *data.Dataset) *Block {
	b, err := FromPoints(ds.Schema(), ds.Points())
	if err != nil {
		panic(err) // unreachable: data.New validated every point
	}
	return b
}

// N returns the row count.
func (b *Block) N() int { return b.n }

// Schema returns the schema the block was built under.
func (b *Block) Schema() *data.Schema { return b.schema }

// ID returns the point id stored at row.
func (b *Block) ID(row int32) data.PointID { return b.ids[row] }

// SizeBytes reports the matrices' memory footprint.
func (b *Block) SizeBytes() int {
	return len(b.num)*8 + len(b.nom)*4 + len(b.ids)*4
}

// Projection is one query's view of a Block or Snapshot: each nominal column
// mapped through the comparator's rank table into its own contiguous []int32
// rank column (served from the colSet cache when an equal table was projected
// before), plus the precomputed §4.2 score f(p) per row. Numeric and stored
// nominal columns are shared with the block/snapshot's column mirror, so a
// projection owns only its rank-column headers and score array; the dominance
// test and the SFS presort never touch the rank tables or the point structs.
//
// When built from a Snapshot the row space is the snapshot's global
// coordinates — base rows first, then the delta segment — and every scan the
// projection runs skips tombstoned rows.
//
// When built from an explicit candidate subset (Snapshot.ProjectRows) the row
// space is local: position i stands for global row rows[i], every column
// covers only the subset, and every row is live by construction.
type Projection struct {
	b    *Block
	snap *Snapshot // non-nil when spanning base+delta
	rows []int32   // non-nil for subset projections: local → global row
	n    int       // total rows (== b.n for plain blocks)

	numCols  [][]float64     // shared numeric columns, one per numeric dim
	nomCols  [][]order.Value // shared stored-value columns, one per nominal dim
	rankCols [][]int32       // §4.2 rank columns, one per nominal dim
	unlisted []int32         // per nominal dim: the shared unlisted rank (= cardinality)
	scores   []float64       // f(p) per row

	cs      *colSet // non-nil for dense projections: hosts the presort cache
	sortKey string  // all-dimension rank-table fingerprint, the presort cache key
}

// unlistedRanks returns each nominal dimension's unlisted rank — the domain
// cardinality k: all values a preference leaves unlisted share it (§4.2) but
// remain pairwise incomparable.
func unlistedRanks(schema *data.Schema) []int32 {
	cards := schema.Cardinalities()
	out := make([]int32, len(cards))
	for d, c := range cards {
		out[d] = int32(c)
	}
	return out
}

// newProjection assembles a dense projection over a column set: rank columns
// from the cache, scores as the shared numeric row sums plus each rank
// column, accumulated in dimension order so results are bit-identical to the
// row-major pass this replaced.
func newProjection(b *Block, s *Snapshot, cs *colSet, tabs [][]int32) *Projection {
	pr := &Projection{
		b:        b,
		snap:     s,
		n:        cs.n,
		numCols:  cs.num,
		nomCols:  cs.nom,
		rankCols: make([][]int32, len(tabs)),
		unlisted: unlistedRanks(b.schema),
		cs:       cs,
	}
	var key []byte
	for d, tab := range tabs {
		pr.rankCols[d] = cs.rankColumn(d, tab)
		key = append(key, tableKey(d, tab)...)
	}
	pr.sortKey = string(key)
	scores := make([]float64, cs.n)
	copy(scores, cs.numScores())
	for _, col := range pr.rankCols {
		for i, r := range col {
			scores[i] += float64(r)
		}
	}
	pr.scores = scores
	return pr
}

// Project maps the block through the comparator's rank tables. The
// comparator must have been built against the block's schema.
func (b *Block) Project(cmp *dominance.Comparator) (*Projection, error) {
	tabs := cmp.RankTables()
	if len(tabs) != b.nomDims {
		return nil, fmt.Errorf("flat: comparator has %d nominal dimensions, block has %d",
			len(tabs), b.nomDims)
	}
	return newProjection(b, nil, b.columns(), tabs), nil
}

// N returns the row count (including tombstoned rows for snapshot
// projections; scans skip them).
func (pr *Projection) N() int { return pr.n }

// Block returns the projected base block.
func (pr *Projection) Block() *Block { return pr.b }

// Score returns the precomputed monotone score f of the point at row.
func (pr *Projection) Score(row int32) float64 { return pr.scores[row] }

// Scores exposes the backing score array (row-indexed). Callers must not
// mutate it.
func (pr *Projection) Scores() []float64 { return pr.scores }

// ID returns the point id stored at row (local for subset projections).
func (pr *Projection) ID(row int32) data.PointID {
	if pr.rows != nil {
		row = pr.rows[row]
	}
	if s := pr.snap; s != nil {
		return s.ID(row)
	}
	return pr.b.ids[row]
}

// Dominates reports whether the point at row i dominates the point at row j:
// at least as good on every dimension, strictly better on one, with equal
// ranks over distinct nominal values (two unlisted values) incomparable.
func (pr *Projection) Dominates(i, j int32) bool {
	strict := false
	for _, col := range pr.numCols {
		pv, qv := col[i], col[j]
		if pv > qv {
			return false
		}
		if pv < qv {
			strict = true
		}
	}
	for d, col := range pr.rankCols {
		pv, qv := col[i], col[j]
		if pv < qv {
			strict = true
			continue
		}
		// A larger rank means j is strictly better.
		if pv > qv {
			return false
		}
		// Equal ranks below the unlisted rank name the same listed value
		// (rank r < k is the unique value at position r of the entry list);
		// at the unlisted rank, distinct stored values are incomparable
		// (§4.2), so only there the stored columns are consulted.
		if pv == pr.unlisted[d] {
			nc := pr.nomCols[d]
			if nc[i] != nc[j] {
				return false
			}
		}
	}
	return strict
}

// ScoreBits maps a float64 to a uint64 whose unsigned order matches the
// float order (IEEE-754 total order over non-NaN values): the sort key the
// flat kernels pack (score, row) into instead of closing over sort.Slice.
func ScoreBits(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 == 1 {
		return ^b
	}
	return b | 1<<63
}

// CompareScoreKeys is the one ordering every packed presort key in the
// repository uses: score bits ascending (ScoreBits order), then the integer
// tiebreak (row or point id) ascending. Centralizing it keeps the flat
// kernel, the pointer iterator and adaptive's affected-point re-sort
// agreeing on key order.
func CompareScoreKeys(aBits, bBits uint64, aTie, bTie int32) int {
	switch {
	case aBits < bBits:
		return -1
	case aBits > bBits:
		return 1
	case aTie < bTie:
		return -1
	case aTie > bTie:
		return 1
	}
	return 0
}

// sortKey packs one row's full-precision presort key: score bits first, row
// as tiebreak, so comparing two keys is two integer compares over contiguous
// memory. It is the small-input path; large inputs radix-sort the compact
// radixKey instead.
type sortKey struct {
	bits uint64
	row  int32
}

func compareKeys(a, b sortKey) int {
	return CompareScoreKeys(a.bits, b.bits, a.row, b.row)
}

// radixKey is the large-input presort record: the top 32 score bits (sign,
// exponent, 20 mantissa bits) plus the row, 8 bytes total, so each radix
// pass moves half the memory a full-precision key would. Rows whose scores
// collide in the top 32 bits are re-sorted by full score afterwards.
type radixKey struct {
	bits uint32
	row  int32
}

// liveRows returns the live rows of [lo, hi) in ascending order: all of them
// for plain block and subset projections (subset rows are live by
// construction), the non-tombstoned ones for dense snapshot projections.
func (pr *Projection) liveRows(lo, hi int) []int32 {
	out := make([]int32, 0, hi-lo)
	if s := pr.snap; s != nil && s.deadN > 0 && pr.rows == nil {
		for row := lo; row < hi; row++ {
			if !s.dead.Contains(row) {
				out = append(out, int32(row))
			}
		}
		return out
	}
	for row := lo; row < hi; row++ {
		out = append(out, int32(row))
	}
	return out
}

// SortedRows returns the live rows of [lo, hi) ordered by (score, row) — the
// SFS presort (§4.1) over the precomputed score array, with tombstoned rows
// excluded. Full-range presorts of dense projections are served from the
// colSet's permutation cache (scores are a pure function of the rank tables),
// so repeat preferences skip the sort; the returned slice may then be shared
// and must not be mutated.
func (pr *Projection) SortedRows(lo, hi int) []int32 {
	if pr.cs != nil && lo == 0 && hi == pr.n && pr.n > 0 {
		perm := pr.cs.cachedSort(pr.sortKey, func() []int32 {
			rows := make([]int32, pr.n)
			for i := range rows {
				rows[i] = int32(i)
			}
			return pr.sortByScore(rows)
		})
		if s := pr.snap; s != nil && s.deadN > 0 {
			live := make([]int32, 0, pr.n-s.deadN)
			for _, r := range perm {
				if !s.dead.Contains(int(r)) {
					live = append(live, r)
				}
			}
			return live
		}
		return perm
	}
	return pr.sortByScore(pr.liveRows(lo, hi))
}

// sortByScore orders the given rows ascending by (score bits, row), sorting
// the slice in place and returning it: the packed-key presort shared by the
// range scans and the candidate-subset scan.
func (pr *Projection) sortByScore(rows []int32) []int32 {
	n := len(rows)
	if n == 0 {
		return rows
	}
	if n < 128 {
		keys := make([]sortKey, n)
		for i, row := range rows {
			keys[i] = sortKey{bits: ScoreBits(pr.scores[row]), row: row}
		}
		slices.SortFunc(keys, compareKeys)
		for i, k := range keys {
			rows[i] = k.row
		}
		return rows
	}
	keys := make([]radixKey, n)
	for i, row := range rows {
		keys[i] = radixKey{bits: uint32(ScoreBits(pr.scores[row]) >> 32), row: row}
	}
	radixSortKeys(keys)
	// Collision fixup: scores agreeing on the top 32 bits may still differ
	// below, so re-sort each equal-bits run by full (score bits, row). Runs
	// are almost always singletons; fully tied runs arrive row-ascending
	// (the radix sort is stable) and cost one linear verification pass.
	for i := 0; i < n; {
		j := i + 1
		for j < n && keys[j].bits == keys[i].bits {
			j++
		}
		if j-i > 1 {
			pr.fixupRun(keys[i:j])
		}
		i = j
	}
	for i, k := range keys {
		rows[i] = k.row
	}
	return rows
}

// fixupRun restores full-precision (score, row) order within one run of keys
// whose top 32 score bits collided.
func (pr *Projection) fixupRun(run []radixKey) {
	slices.SortFunc(run, func(a, b radixKey) int {
		return CompareScoreKeys(ScoreBits(pr.scores[a.row]), ScoreBits(pr.scores[b.row]), a.row, b.row)
	})
}

// radixSortKeys sorts packed keys by bits ascending with a stable LSD radix
// sort, so ties come out in insertion order (ascending row). A first pass
// finds which byte positions actually vary — for real score distributions
// the sign and exponent bytes are constant — and only those are histogrammed
// and scattered: a large sort costs a few passes of sequential memory
// traffic instead of N log N comparator calls.
func radixSortKeys(keys []radixKey) {
	n := len(keys)
	first := keys[0].bits
	varying := uint32(0)
	for i := range keys {
		varying |= keys[i].bits ^ first
	}
	if varying == 0 {
		return // all top bits equal: insertion order is already row-ascending
	}
	var shifts [4]uint
	np := 0
	for s := uint(0); s < 32; s += 8 {
		if varying>>s&0xff != 0 {
			shifts[np] = s
			np++
		}
	}
	counts := make([]int32, np*256)
	for i := range keys {
		b := keys[i].bits
		for j := 0; j < np; j++ {
			counts[j*256+int(b>>shifts[j]&0xff)]++
		}
	}
	buf := make([]radixKey, n)
	src, dst := keys, buf
	for j := 0; j < np; j++ {
		// Turn this digit's histogram into scatter offsets in place.
		c := counts[j*256 : (j+1)*256]
		off := int32(0)
		for d := range c {
			cnt := c[d]
			c[d] = off
			off += cnt
		}
		shift := shifts[j]
		for i := range src {
			d := src[i].bits >> shift & 0xff
			pos := c[d]
			c[d] = pos + 1
			dst[pos] = src[i]
		}
		src, dst = dst, src
	}
	if np&1 == 1 {
		copy(keys, src)
	}
}

// SkylineRange computes the skyline of rows [lo, hi) with the flat SFS
// kernel, returned in ascending (score, row) order — the local phase of the
// partitioned engines, whose merge-filter prunes on the same score order.
func (pr *Projection) SkylineRange(lo, hi int) []int32 {
	//lint:background ctx-free convenience wrapper for engine construction and bench paths; the request path calls SkylineRangeCtx
	rows, _ := pr.SkylineRangeCtx(context.Background(), lo, hi)
	return rows
}

// SkylineRangeCtx is SkylineRange with cancellation: the scan polls the
// context every 64 candidates and returns its error, so partitioned engines
// abort mid-block. It is the single implementation of the flat SFS scan.
//
// Like the pointer-form skyline.SFS, the scan relies on §4.1's monotonicity — p ≺ q
// implies f(p) < f(q) — holding for the *floating-point* score sum; see the
// strictness note in DESIGN.md and the pinned limitation test.
func (pr *Projection) SkylineRangeCtx(ctx context.Context, lo, hi int) ([]int32, error) {
	return pr.scanRows(ctx, pr.SortedRows(lo, hi))
}

// scanRows runs the SFS filter over rows already presorted by (score, row):
// the single scan loop behind SkylineRangeCtx and SkylineOf.
func (pr *Projection) scanRows(ctx context.Context, rows []int32) ([]int32, error) {
	accepted := make([]int32, 0, 64)
	for c, r := range rows {
		if c&63 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		dominated := false
		for _, s := range accepted {
			if pr.Dominates(s, r) {
				dominated = true
				break
			}
		}
		if !dominated {
			accepted = append(accepted, r)
		}
	}
	return accepted, nil
}

// SkylineOf computes the skyline of an explicit candidate row subset of an
// already-built projection: only the listed rows are presorted and scanned,
// so the scan cost is O(C log C + C·S) for C candidates instead of touching
// all N rows. It shares sortByScore and scanRows with the range kernels —
// the semantic result cache's hot path avoids even the dense projection by
// pairing the same sort and scan with Snapshot.ProjectRows instead. Rows are
// local to the projection; tombstoned rows in the input are skipped, the
// input slice is not modified, and the result comes back in ascending
// (score, row) order like SkylineRange.
func (pr *Projection) SkylineOf(ctx context.Context, rows []int32) ([]int32, error) {
	live := make([]int32, 0, len(rows))
	if s := pr.snap; s != nil && s.deadN > 0 && pr.rows == nil {
		for _, r := range rows {
			if !s.dead.Contains(int(r)) {
				live = append(live, r)
			}
		}
	} else {
		live = append(live, rows...)
	}
	return pr.scanRows(ctx, pr.sortByScore(live))
}

// IDs maps scan rows to their point ids in canonical ascending order: the
// epilogue every flat skyline shares.
func (pr *Projection) IDs(rows []int32) []data.PointID {
	out := make([]data.PointID, len(rows))
	for i, r := range rows {
		out[i] = pr.ID(r)
	}
	slices.Sort(out)
	return out
}

// Skyline computes the full-block skyline with the flat SFS kernel: sort an
// index permutation on the precomputed scores (packed keys, no closure over
// sort.SliceStable) and scan with the accepted set held as row indices. The
// result is ascending point ids, identical to skyline.SFS over the same
// points and preference.
func (pr *Projection) Skyline() []data.PointID {
	return pr.IDs(pr.SkylineRange(0, pr.n))
}
