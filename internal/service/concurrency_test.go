package service

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"prefsky/internal/core"
	"prefsky/internal/data"
	"prefsky/internal/gen"
	"prefsky/internal/order"
)

// TestConcurrentHammer drives the full service from many goroutines under
// -race: single queries on a static dataset (checked against a fresh SFS-D
// baseline), batch calls, stats polling, and mixed queries + Insert/Delete
// maintenance on an SFS-A dataset (checked for internal consistency after
// the dust settles).
func TestConcurrentHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrency hammer")
	}
	ds, err := gen.Dataset(gen.Config{
		N: 400, NumDims: 2, NomDims: 2, Cardinality: 6,
		Theta: 1, Kind: gen.AntiCorrelated, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := ds.Schema().EmptyPreference()
	queries, err := gen.Queries(ds.Schema().Cardinalities(), tmpl, gen.QueryConfig{
		Order: 2, Count: 32, Mode: gen.Zipfian, Theta: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}

	s := New(Options{CacheCapacity: 64, CacheShards: 4, Workers: 4})
	// "static" is never maintained: every concurrent result must equal the
	// baseline's. It runs the hybrid so the tree, the fallback and the atomic
	// routing counters all get exercised. The "mutable-*" datasets take
	// Insert/Delete traffic concurrently with queries: SFS-A exercises the
	// incremental structures behind the engine lock, the scan engines
	// exercise the lock-free snapshot swap, and the low compaction threshold
	// makes background compactions (and the parallel hybrid's tree rebuilds)
	// fire mid-hammer.
	if err := s.AddDataset("static", ds, EngineConfig{Kind: "hybrid", Template: tmpl}); err != nil {
		t.Fatal(err)
	}
	mutables := []string{"mutable-sfsa", "mutable-sfsd", "mutable-phybrid"}
	for name, kind := range map[string]string{
		"mutable-sfsa":    "sfsa",
		"mutable-sfsd":    "sfsd",
		"mutable-phybrid": "parallel-hybrid",
	} {
		if err := s.AddDataset(name, ds, EngineConfig{Kind: kind, Template: tmpl, CompactThreshold: 16}); err != nil {
			t.Fatal(err)
		}
	}
	baseline, err := core.NewSFSD(ds)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]data.PointID, len(queries))
	for i, q := range queries {
		if want[i], err = baseline.Skyline(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}

	const (
		readers     = 8
		batchers    = 2
		maintainers = 2
		iters       = 40
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+batchers+maintainers)

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				qi := rng.Intn(len(queries))
				ids, _, err := s.Query(context.Background(), "static", queries[qi])
				if err != nil {
					errCh <- err
					return
				}
				if !reflect.DeepEqual(ids, want[qi]) {
					t.Errorf("concurrent query %d diverged from SFS-D baseline", qi)
					return
				}
				// Interleave queries on the datasets under maintenance; the
				// result set moves, so only check they do not error.
				if _, _, err := s.Query(context.Background(), mutables[rng.Intn(len(mutables))], queries[rng.Intn(len(queries))]); err != nil {
					errCh <- err
					return
				}
				if rng.Intn(8) == 0 {
					s.Stats()
				}
			}
		}(int64(g))
	}

	for g := 0; g < batchers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < iters/4; i++ {
				k := 1 + rng.Intn(6)
				prefs := make([]*order.Preference, k)
				idx := make([]int, k)
				for j := range prefs {
					idx[j] = rng.Intn(len(queries))
					prefs[j] = queries[idx[j]]
				}
				for j, r := range s.Batch(context.Background(), "static", prefs) {
					if r.Err != nil {
						errCh <- r.Err
						return
					}
					if !reflect.DeepEqual(r.IDs, want[idx[j]]) {
						t.Errorf("concurrent batch member %d diverged from baseline", idx[j])
						return
					}
				}
			}
		}(int64(g))
	}

	for mi, mutable := range mutables {
		for g := 0; g < maintainers; g++ {
			wg.Add(1)
			go func(mutable string, seed int64) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(200 + seed))
				var mine []data.PointID
				for i := 0; i < iters/2; i++ {
					if len(mine) > 0 && rng.Intn(2) == 0 {
						id := mine[len(mine)-1]
						mine = mine[:len(mine)-1]
						if err := s.Delete(mutable, id); err != nil {
							errCh <- err
							return
						}
						continue
					}
					// Mix single inserts with small batches to drive the
					// batch path too.
					if rng.Intn(4) == 0 {
						k := 1 + rng.Intn(3)
						pts := make([]PointInput, k)
						for j := range pts {
							pts[j] = PointInput{
								Num: []float64{rng.Float64(), rng.Float64()},
								Nom: []order.Value{order.Value(rng.Intn(6)), order.Value(rng.Intn(6))},
							}
						}
						ids, err := s.InsertBatch(mutable, pts)
						if err != nil {
							errCh <- err
							return
						}
						mine = append(mine, ids...)
						continue
					}
					num := []float64{rng.Float64(), rng.Float64()}
					nom := []order.Value{order.Value(rng.Intn(6)), order.Value(rng.Intn(6))}
					id, err := s.Insert(mutable, num, nom)
					if err != nil {
						errCh <- err
						return
					}
					mine = append(mine, id)
				}
				// Leave the dataset as we found it.
				if _, err := s.DeleteBatch(mutable, mine); err != nil {
					errCh <- err
				}
			}(mutable, int64(10*mi+int(maintainers)+g))
		}
	}

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// With every maintainer's inserts rolled back, the mutable datasets must
	// again agree with the untouched baseline on every query.
	for _, mutable := range mutables {
		for i, q := range queries {
			ids, _, err := s.Query(context.Background(), mutable, q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ids, want[i]) {
				t.Errorf("%s: post-hammer query %d = %v, want %v", mutable, i, ids, want[i])
			}
		}
	}
	st := s.Stats()
	if st.Cache.Hits == 0 {
		t.Error("hammer produced no cache hits")
	}
	if st.Queries == 0 {
		t.Error("query counter stayed zero")
	}
}

// TestCachePutWhileGet rewrites one key with alternating results of
// different lengths while readers Get and Probe it. A reader must see one
// whole entry: the id slice of one Put, never a mix of two.
func TestCachePutWhileGet(t *testing.T) {
	short := []data.PointID{1}
	long := []data.PointID{1, 2, 3}
	whole := func(ids []data.PointID) bool {
		return slices.Equal(ids, short) || slices.Equal(ids, long)
	}
	c := NewCache(8, 1)
	const key, iters = "k", 2000
	c.Put(key, "d", Answer{IDs: short})

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if (i+w)%2 == 0 {
					c.Put(key, "d", Answer{IDs: long})
				} else {
					c.Put(key, "d", Answer{IDs: short})
				}
			}
		}(w)
	}
	torn := make(chan string, 4)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if ids, ok := c.Get(key); ok && !whole(ids) {
					torn <- "Get returned a torn id slice"
					return
				}
				if a, ok := c.Probe(key); ok && !whole(a.IDs) {
					torn <- "Probe returned a torn id slice"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(torn)
	for msg := range torn {
		t.Error(msg)
	}
}
