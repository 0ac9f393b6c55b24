package cluster

import (
	"fmt"
	"hash/fnv"
	"math"

	"prefsky/internal/data"
)

// Partitioner assigns each row of a dataset to one of S shards. The
// assignment only affects performance, never correctness: the merge-filter
// is exact for any disjoint cover of the data. Hash partitioning spreads
// rows uniformly, so every shard sees a statistically identical sample and
// per-shard skylines stay small; grid partitioning co-locates spatially
// close rows, which strengthens shard-local pruning but risks skew — the
// trade-off the skyline surveys describe, selectable with skylined's
// -partitioner flag.
type Partitioner interface {
	// Name identifies the scheme in stats and benchmarks.
	Name() string
	// Assign returns one shard index in [0, shards) per dataset row.
	Assign(ds *data.Dataset, shards int) ([]int, error)
}

// ParsePartitioner resolves a scheme by name; "" defaults to hash.
func ParsePartitioner(s string) (Partitioner, error) {
	switch s {
	case "", "hash":
		return HashPartitioner{}, nil
	case "grid":
		return GridPartitioner{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown partitioner %q (want hash or grid)", s)
}

// HashPartitioner spreads rows by an FNV-1a hash of the row id — the
// random/round-robin family: shards receive near-equal, statistically
// identical samples of the data.
type HashPartitioner struct{}

// Name implements Partitioner.
func (HashPartitioner) Name() string { return "hash" }

// Assign implements Partitioner.
func (HashPartitioner) Assign(ds *data.Dataset, shards int) ([]int, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: %d shards", shards)
	}
	out := make([]int, ds.N())
	h := fnv.New32a()
	var buf [4]byte
	for i := range out {
		id := uint32(ds.Points()[i].ID)
		buf[0], buf[1], buf[2], buf[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
		h.Reset()
		h.Write(buf[:])
		out[i] = int(h.Sum32() % uint32(shards))
	}
	return out, nil
}

// GridPartitioner cuts the numeric space into equi-width cells (per-dim
// bucket counts chosen so the cell count is at least the shard count) and
// deals cells to shards round-robin by cell id. Neighboring rows share a
// shard, so each shard's local skyline prunes harder within its region; the
// price is potential skew when the data's mass concentrates in few cells.
type GridPartitioner struct{}

// Name implements Partitioner.
func (GridPartitioner) Name() string { return "grid" }

// Assign implements Partitioner.
func (GridPartitioner) Assign(ds *data.Dataset, shards int) ([]int, error) {
	if shards < 1 {
		return nil, fmt.Errorf("cluster: %d shards", shards)
	}
	n, m := ds.N(), ds.Schema().NumDims()
	out := make([]int, n)
	if shards == 1 || n == 0 || m == 0 {
		// No numeric space to cut; everything lands on shard 0 unless hash
		// spreading is the only option left.
		if m == 0 && shards > 1 {
			return HashPartitioner{}.Assign(ds, shards)
		}
		return out, nil
	}
	pts := ds.Points()
	lo := make([]float64, m)
	hi := make([]float64, m)
	for d := 0; d < m; d++ {
		lo[d], hi[d] = pts[0].Num[d], pts[0].Num[d]
	}
	for i := 1; i < n; i++ {
		for d, v := range pts[i].Num {
			if v < lo[d] {
				lo[d] = v
			}
			if v > hi[d] {
				hi[d] = v
			}
		}
	}
	varying := 0
	for d := 0; d < m; d++ {
		if hi[d] > lo[d] {
			varying++
		}
	}
	if varying == 0 {
		return HashPartitioner{}.Assign(ds, shards)
	}
	// Enough buckets per varying dimension that cells ≥ 4×shards, giving the
	// round-robin deal room to balance.
	per := int(math.Ceil(math.Pow(float64(4*shards), 1/float64(varying))))
	per = max(per, 2)
	for i := 0; i < n; i++ {
		cell := 0
		for d := 0; d < m; d++ {
			if hi[d] <= lo[d] {
				continue
			}
			idx := int(float64(per) * (pts[i].Num[d] - lo[d]) / (hi[d] - lo[d]))
			if idx >= per {
				idx = per - 1
			}
			cell = cell*per + idx
		}
		out[i] = cell % shards
	}
	return out, nil
}

// Split partitions a dataset into per-shard point slices using the
// assignment p produces. The points keep their dataset-global ids (each
// partition is a copy of the point headers, not a data.New rebuild — data.New
// would reassign ids to partition-local indices and break the global id
// space the merge and the oracle comparisons rely on). Every row lands in
// exactly one partition; empty partitions are returned as empty slices so
// the caller can still push "this shard holds nothing" explicitly.
func Split(ds *data.Dataset, shards int, p Partitioner) ([][]data.Point, error) {
	if p == nil {
		p = HashPartitioner{}
	}
	assign, err := p.Assign(ds, shards)
	if err != nil {
		return nil, err
	}
	if len(assign) != ds.N() {
		return nil, fmt.Errorf("cluster: partitioner %s assigned %d rows, dataset has %d", p.Name(), len(assign), ds.N())
	}
	parts := make([][]data.Point, shards)
	for i, s := range assign {
		if s < 0 || s >= shards {
			return nil, fmt.Errorf("cluster: partitioner %s sent row %d to shard %d of %d", p.Name(), i, s, shards)
		}
		parts[s] = append(parts[s], ds.Points()[i])
	}
	return parts, nil
}
