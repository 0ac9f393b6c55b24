package parallel

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/gen"
	"prefsky/internal/skyline"
)

// randomFixture builds one random dataset plus a query workload.
func randomFixture(t testing.TB, n, numDims, nomDims, card int, seed int64) (*data.Dataset, []*dominance.Comparator) {
	t.Helper()
	ds, err := gen.Dataset(gen.Config{
		N: n, NumDims: numDims, NomDims: nomDims, Cardinality: card,
		Theta: 1, Kind: gen.AntiCorrelated, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := ds.Schema().EmptyPreference()
	queries, err := gen.Queries(ds.Schema().Cardinalities(), tmpl, gen.QueryConfig{
		Order: 2, Count: 6, Mode: gen.Zipfian, Theta: 1, Seed: seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cmps := make([]*dominance.Comparator, len(queries))
	for i, q := range queries {
		if cmps[i], err = dominance.NewComparator(ds.Schema(), q); err != nil {
			t.Fatal(err)
		}
	}
	return ds, cmps
}

// project builds the flat rank projection of the whole dataset under cmp.
func project(t testing.TB, ds *data.Dataset, cmp *dominance.Comparator) *flat.Projection {
	t.Helper()
	proj, err := flat.NewBlock(ds).Project(cmp)
	if err != nil {
		t.Fatal(err)
	}
	return proj
}

// TestSkylineMatchesSFS is the correctness property of the partitioned scan:
// for random datasets × random preferences × partition counts 1..8, the
// partitioned merge-filtered skyline is identical to sequential SFS (SFS-D).
func TestSkylineMatchesSFS(t *testing.T) {
	cases := []struct {
		n, numDims, nomDims, card int
		seed                      int64
	}{
		{0, 2, 1, 4, 1},
		{1, 2, 1, 4, 2},
		{7, 1, 2, 3, 3},
		{100, 2, 2, 6, 4},
		{500, 3, 2, 10, 5},
		{1000, 2, 3, 8, 6},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("n=%d/seed=%d", c.n, c.seed), func(t *testing.T) {
			ds, cmps := randomFixture(t, c.n, c.numDims, c.nomDims, c.card, c.seed)
			for qi, cmp := range cmps {
				want := skyline.SFS(ds.Points(), cmp)
				proj := project(t, ds, cmp)
				for parts := 1; parts <= 8; parts++ {
					got, err := SkylineProjected(context.Background(), proj, parts)
					if err != nil {
						t.Fatalf("query %d parts %d: %v", qi, parts, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("query %d parts %d: got %v, want %v", qi, parts, got, want)
					}
				}
			}
		})
	}
}

// TestSkylineDefaultPartitions exercises the partitions<=0 (GOMAXPROCS)
// path, including the small-input scale-down.
func TestSkylineDefaultPartitions(t *testing.T) {
	ds, cmps := randomFixture(t, 1200, 2, 2, 6, 9)
	for _, cmp := range cmps {
		want := skyline.SFS(ds.Points(), cmp)
		got, err := SkylineProjected(context.Background(), project(t, ds, cmp), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("default partitions diverged: got %v, want %v", got, want)
		}
	}
}

// TestCanceledContext: an already-canceled context aborts before any work,
// on the one-range path and the partitioned path alike.
func TestCanceledContext(t *testing.T) {
	ds, cmps := randomFixture(t, 200, 2, 2, 5, 31)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parts := range []int{1, 4} {
		if _, err := SkylineProjected(ctx, project(t, ds, cmps[0]), parts); !errors.Is(err, context.Canceled) {
			t.Errorf("SkylineProjected(parts=%d) error = %v, want context.Canceled", parts, err)
		}
	}
}

// TestDeadlineExceeded: an expired deadline surfaces as DeadlineExceeded.
func TestDeadlineExceeded(t *testing.T) {
	ds, cmps := randomFixture(t, 200, 2, 2, 5, 37)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := SkylineProjected(ctx, project(t, ds, cmps[0]), 4); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error = %v, want context.DeadlineExceeded", err)
	}
}

// TestConcurrentCancellation races cancellation against running queries
// through the served path — one snapshot projection per query, then
// SkylineProjected — under -race: every outcome must be either a correct
// result or a context error, never a panic or a wrong skyline.
func TestConcurrentCancellation(t *testing.T) {
	ds, cmps := randomFixture(t, 2000, 3, 2, 6, 41)
	cmp := cmps[0]
	want := skyline.SFS(ds.Points(), cmp)
	store := flat.NewStore(ds, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan struct{})
			go func() {
				// Cancel at staggered points while queries run.
				time.Sleep(time.Duration(i) * 50 * time.Microsecond)
				cancel()
				close(done)
			}()
			for j := 0; j < 4; j++ {
				proj, err := store.Snapshot().Project(cmp)
				if err != nil {
					t.Error(err)
					break
				}
				got, err := SkylineProjected(ctx, proj, 8)
				if err != nil {
					if !errors.Is(err, context.Canceled) {
						t.Errorf("unexpected error: %v", err)
					}
					break
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("racy result diverged")
				}
			}
			<-done
		}(i)
	}
	wg.Wait()
}

// TestNormalize pins the partition-count resolution rules.
func TestNormalize(t *testing.T) {
	cases := []struct {
		n, parts, want int
	}{
		{100, 1, 1},
		{100, 4, 4},
		{3, 8, 3},   // explicit counts cap at N
		{0, 4, 1},   // empty input: one (empty) block
		{100, 0, 1}, // defaulted: 100 < minAutoBlock → sequential
	}
	for _, c := range cases {
		if got := normalize(c.n, c.parts); got != c.want {
			t.Errorf("normalize(%d, %d) = %d, want %d", c.n, c.parts, got, c.want)
		}
	}
}

// TestSkylineProjectedMatchesSFS is the shared-projection property of the
// flat kernel: one rank projection over the whole block, partitions as row
// ranges, identical skylines to sequential SFS for every partition count
// 1..8.
func TestSkylineProjectedMatchesSFS(t *testing.T) {
	cases := []struct {
		n, numDims, nomDims, card int
		seed                      int64
	}{
		{0, 2, 1, 4, 51},
		{1, 2, 1, 4, 52},
		{7, 1, 2, 3, 53},
		{200, 2, 2, 6, 54},
		{1000, 3, 2, 8, 55},
	}
	for _, c := range cases {
		ds, cmps := randomFixture(t, c.n, c.numDims, c.nomDims, c.card, c.seed)
		blk := flat.NewBlock(ds)
		for qi, cmp := range cmps {
			want := skyline.SFS(ds.Points(), cmp)
			proj, err := blk.Project(cmp)
			if err != nil {
				t.Fatal(err)
			}
			for parts := 1; parts <= 8; parts++ {
				got, err := SkylineProjected(context.Background(), proj, parts)
				if err != nil {
					t.Fatalf("n=%d query %d parts %d: %v", c.n, qi, parts, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("n=%d query %d parts %d: got %v, want %v", c.n, qi, parts, got, want)
				}
			}
		}
	}
}

// TestSkylineProjectedCanceled: a canceled context aborts the partitioned
// scan over a block's projection.
func TestSkylineProjectedCanceled(t *testing.T) {
	ds, cmps := randomFixture(t, 300, 2, 2, 5, 71)
	blk := flat.NewBlock(ds)
	proj, err := blk.Project(cmps[0])
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SkylineProjected(ctx, proj, 4); !errors.Is(err, context.Canceled) {
		t.Errorf("error = %v, want context.Canceled", err)
	}
}
