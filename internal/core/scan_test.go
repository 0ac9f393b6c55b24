package core

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"prefsky/internal/dominance"
	"prefsky/internal/gen"
	"prefsky/internal/skyline"
)

// TestEngineMatchesSFS: parallel-sfs answers exactly like sequential SFS for
// every partition count 1..8 (comparator construction included).
func TestEngineMatchesSFS(t *testing.T) {
	ds, err := gen.Dataset(gen.Config{
		N: 300, NumDims: 2, NomDims: 2, Cardinality: 5,
		Theta: 1, Kind: gen.AntiCorrelated, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := ds.Schema().EmptyPreference()
	queries, err := gen.Queries(ds.Schema().Cardinalities(), tmpl, gen.QueryConfig{
		Order: 2, Count: 8, Mode: gen.Uniform, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for parts := 1; parts <= 8; parts++ {
		e, err := NewParallelSFS(ds, parts)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			cmp, err := dominance.NewComparator(ds.Schema(), q)
			if err != nil {
				t.Fatal(err)
			}
			want := skyline.SFS(ds.Points(), cmp)
			got, err := e.Skyline(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parts %d: got %v, want %v", parts, got, want)
			}
		}
	}
	e, _ := NewParallelSFS(ds, 4)
	if p := e.(*SFSD).parts; p != 4 {
		t.Errorf("partitions = %d, want 4", p)
	}
	if e.SizeBytes() != 0 {
		t.Errorf("SizeBytes() = %d, want 0", e.SizeBytes())
	}
}

// TestEngineKernelsAgree: parallel-sfs answers exactly like the sequential
// SFS oracle over the dataset's points, and reports its columnar mirror.
func TestEngineKernelsAgree(t *testing.T) {
	ds, err := gen.Dataset(gen.Config{
		N: 600, NumDims: 2, NomDims: 2, Cardinality: 5,
		Theta: 1, Kind: gen.AntiCorrelated, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(ds.Schema().Cardinalities(), ds.Schema().EmptyPreference(), gen.QueryConfig{
		Order: 2, Count: 6, Mode: gen.Zipfian, Theta: 1, Seed: 62,
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewParallelSFS(ds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		want := skyline.SFS(ds.Points(), dominance.MustComparator(ds.Schema(), q))
		got, err := e.Skyline(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("engine diverged from SFS: got %v, want %v", got, want)
		}
	}
	if StoreOf(e).Snapshot().SizeBytes() == 0 {
		t.Error("engine store SizeBytes = 0, want > 0")
	}
}

// benchSizes are the dataset sizes swept; -short keeps the smallest.
func benchSizes() []int {
	if testing.Short() {
		return []int{10_000}
	}
	return []int{10_000, 100_000}
}

// BenchmarkEngineQuery measures the full scan engine path (comparator build
// included), the unit the service's worker pool schedules, on one range and
// on GOMAXPROCS ranges. Run with:
//
//	go test -run=NONE -bench=BenchmarkEngineQuery ./internal/core/
func BenchmarkEngineQuery(b *testing.B) {
	for _, n := range benchSizes() {
		ds, err := gen.Dataset(gen.Config{
			N: n, NumDims: 3, NomDims: 2, Cardinality: 20,
			Theta: 1, Kind: gen.Independent, Seed: 20080101,
		})
		if err != nil {
			b.Fatal(err)
		}
		queries, err := gen.Queries(ds.Schema().Cardinalities(), ds.Schema().EmptyPreference(), gen.QueryConfig{
			Order: 2, Count: 1, Mode: gen.Zipfian, Theta: 1, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range []struct {
			name  string
			parts int
		}{{"sequential", 1}, {"partitioned", 0}} {
			b.Run(fmt.Sprintf("%s/N=%d", c.name, n), func(b *testing.B) {
				e, err := NewParallelSFS(ds, c.parts)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := e.Skyline(context.Background(), queries[0]); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
