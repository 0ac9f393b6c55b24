package parallel

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/gen"
	"prefsky/internal/skyline"
)

// Benchmarks compare sequential SFS-D against the partitioned scan across
// dataset size and GOMAXPROCS. On a multi-core machine the partitioned
// variant wins once N is large enough to amortize the merge-filter (the
// acceptance target is >1.5× at N=100k with GOMAXPROCS>=4); with one core it
// documents the partitioning overhead instead. Run with:
//
//	go test -run=NONE -bench=BenchmarkSkyline ./internal/parallel/
//	GOMAXPROCS=8 go test -run=NONE -bench=BenchmarkSkyline ./internal/parallel/

type benchData struct {
	ds  *data.Dataset
	blk *flat.Block
	cmp *dominance.Comparator
}

type benchKey struct {
	n    int
	kind gen.Kind
}

var (
	benchMu    sync.Mutex
	benchCache = map[benchKey]*benchData{}
)

func benchFixture(b *testing.B, n int, kind gen.Kind) *benchData {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	key := benchKey{n, kind}
	if d, ok := benchCache[key]; ok {
		return d
	}
	ds, err := gen.Dataset(gen.Config{
		N: n, NumDims: 3, NomDims: 2, Cardinality: 20,
		Theta: 1, Kind: kind, Seed: 20080101,
	})
	if err != nil {
		b.Fatal(err)
	}
	tmpl := ds.Schema().EmptyPreference()
	queries, err := gen.Queries(ds.Schema().Cardinalities(), tmpl, gen.QueryConfig{
		Order: 2, Count: 1, Mode: gen.Zipfian, Theta: 1, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	cmp, err := dominance.NewComparator(ds.Schema(), queries[0])
	if err != nil {
		b.Fatal(err)
	}
	d := &benchData{ds: ds, blk: flat.NewBlock(ds), cmp: cmp}
	benchCache[key] = d
	return d
}

// benchKinds sweeps the numeric correlation structure: independent data has
// compact skylines (block scans dominate, near-linear parallel scaling);
// anti-correlated data has huge skylines (the merge-filter grows, bounding
// the speedup).
func benchKinds() []gen.Kind {
	if testing.Short() {
		return []gen.Kind{gen.Independent}
	}
	return []gen.Kind{gen.Independent, gen.AntiCorrelated}
}

// benchSizes are the dataset sizes swept; 100k is the acceptance point.
func benchSizes() []int {
	if testing.Short() {
		return []int{10_000}
	}
	return []int{10_000, 100_000}
}

// BenchmarkSkylineSequential is the single-threaded SFS-D baseline.
func BenchmarkSkylineSequential(b *testing.B) {
	for _, kind := range benchKinds() {
		for _, n := range benchSizes() {
			b.Run(fmt.Sprintf("%s/N=%d", kind, n), func(b *testing.B) {
				d := benchFixture(b, n, kind)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					skyline.SFS(d.ds.Points(), d.cmp)
				}
			})
		}
	}
}

// BenchmarkSkylineParallel sweeps partition counts at the ambient GOMAXPROCS
// plus explicit GOMAXPROCS settings, so one run shows the scaling surface.
// Each iteration pays the rank projection the partitions share, as a served
// query does.
func BenchmarkSkylineParallel(b *testing.B) {
	procsSweep := []int{1, 2, 4, 8}
	ambient := runtime.GOMAXPROCS(0)
	ctx := context.Background()
	for _, kind := range benchKinds() {
		for _, n := range benchSizes() {
			for _, procs := range procsSweep {
				if procs > runtime.NumCPU() && procs != ambient {
					// Oversubscribing cores only measures scheduler noise.
					continue
				}
				for _, parts := range []int{2, 4, 8} {
					name := fmt.Sprintf("%s/N=%d/procs=%d/P=%d", kind, n, procs, parts)
					b.Run(name, func(b *testing.B) {
						d := benchFixture(b, n, kind)
						prev := runtime.GOMAXPROCS(procs)
						defer runtime.GOMAXPROCS(prev)
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							proj, err := d.blk.Project(d.cmp)
							if err != nil {
								b.Fatal(err)
							}
							if _, err := SkylineProjected(ctx, proj, parts); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}
