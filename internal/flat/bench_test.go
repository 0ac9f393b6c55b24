package flat_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/gen"
	"prefsky/internal/order"
	"prefsky/internal/parallel"
	"prefsky/internal/skyline"
)

// benchFixture shares one dataset + preference + prebuilt block per size, so
// benchmark iterations measure only per-query work (the block, like in the
// engines, is built once at load time).
type benchFixture struct {
	ds   *data.Dataset
	blk  *flat.Block
	cmp  *dominance.Comparator
	pref *order.Preference
}

var (
	benchMu  sync.Mutex
	fixtures = map[string]*benchFixture{}
)

func fixture(b *testing.B, n int, kind gen.Kind) *benchFixture {
	b.Helper()
	key := fmt.Sprintf("%d/%s", n, kind)
	benchMu.Lock()
	defer benchMu.Unlock()
	if f, ok := fixtures[key]; ok {
		return f
	}
	ds := gen.MustDataset(gen.Config{
		N: n, NumDims: 2, NomDims: 2, Cardinality: 10,
		Theta: 1, Kind: kind, Seed: 42,
	})
	pref := ds.Schema().EmptyPreference()
	for d := 0; d < ds.Schema().NomDims(); d++ {
		ip, err := order.NewImplicit(10, 1, 2)
		if err != nil {
			b.Fatal(err)
		}
		if pref, err = pref.WithDim(d, ip); err != nil {
			b.Fatal(err)
		}
	}
	cmp, err := dominance.NewComparator(ds.Schema(), pref)
	if err != nil {
		b.Fatal(err)
	}
	f := &benchFixture{ds: ds, blk: flat.NewBlock(ds), cmp: cmp, pref: pref}
	fixtures[key] = f
	return f
}

// BenchmarkKernelSFS is the acceptance benchmark: the pointer kernel (point
// structs + closure presort) against the flat kernel (columnar block +
// per-query rank projection + packed-key presort) on SFS-D-shaped queries.
func BenchmarkKernelSFS(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		f := fixture(b, n, gen.Independent)
		b.Run(fmt.Sprintf("N=%d/kernel=pointer", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				skyline.SFS(f.ds.Points(), f.cmp)
			}
		})
		b.Run(fmt.Sprintf("N=%d/kernel=flat", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pr, err := f.blk.Project(f.cmp)
				if err != nil {
					b.Fatal(err)
				}
				pr.Skyline()
			}
		})
	}
}

// BenchmarkKernelProjection isolates the per-query projection cost: the
// single O(N·(m+l)) pass each flat query pays before scanning.
func BenchmarkKernelProjection(b *testing.B) {
	f := fixture(b, 100_000, gen.Independent)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.blk.Project(f.cmp); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelParallel measures the partitioned scan on the shared
// projection: project once per query, partitions are row ranges over it.
func BenchmarkKernelParallel(b *testing.B) {
	f := fixture(b, 100_000, gen.Independent)
	ctx := context.Background()
	for _, parts := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", parts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				proj, err := f.blk.Project(f.cmp) // per-query cost, shared by all partitions
				if err != nil {
					b.Fatal(err)
				}
				if _, err := parallel.SkylineProjected(ctx, proj, parts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
