package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"prefsky/internal/core"
	"prefsky/internal/data"
	"prefsky/internal/ipotree"
	"prefsky/internal/order"
)

func table1Service(t *testing.T, cfg EngineConfig, opts Options) *Service {
	t.Helper()
	s := New(opts)
	if err := s.AddDataset("hotels", data.Table1(), cfg); err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPref(t *testing.T, schema *data.Schema, spec string) *order.Preference {
	t.Helper()
	p, err := data.ParsePreference(schema, spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestServiceQueryMatchesLibrary(t *testing.T) {
	for _, kind := range core.Kinds() {
		s := table1Service(t, EngineConfig{Kind: kind}, Options{})
		schema, err := s.Schema("hotels")
		if err != nil {
			t.Fatal(err)
		}
		baseline, err := core.NewSFSD(data.Table1())
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"", "Hotel-group: T<M<*", "Hotel-group: H<M<*", "Hotel-group: M<*"} {
			pref := mustPref(t, schema, spec)
			got, _, err := s.Query(context.Background(), "hotels", pref)
			if err != nil {
				t.Fatalf("%s: Query(%q): %v", kind, spec, err)
			}
			want, err := baseline.Skyline(context.Background(), pref)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Query(%q) = %v, want %v", kind, spec, got, want)
			}
		}
	}
}

func TestCanonicallyEqualPreferencesShareCacheEntries(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{})
	schema, _ := s.Schema("hotels")

	// "T<M<H" is the total order whose canonical form is "T<M<*": different
	// strings, identical skylines, one cache entry.
	total := mustPref(t, schema, "Hotel-group: T<M<H")
	prefix := mustPref(t, schema, "Hotel-group: T<M<*")
	if total.CacheKey() != prefix.CacheKey() {
		t.Fatalf("cache keys differ: %q vs %q", total.CacheKey(), prefix.CacheKey())
	}

	ids1, outcome, err := s.Query(context.Background(), "hotels", total)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeEngine {
		t.Errorf("first query outcome = %v, want engine", outcome)
	}
	ids2, outcome, err := s.Query(context.Background(), "hotels", prefix)
	if err != nil {
		t.Fatal(err)
	}
	if !outcome.CacheHit() {
		t.Error("canonically equal query missed the cache")
	}
	if !reflect.DeepEqual(ids1, ids2) {
		t.Errorf("results differ: %v vs %v", ids1, ids2)
	}
	st := s.Stats()
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", st.Cache)
	}
	if st.Cache.Entries != 1 {
		t.Errorf("cache holds %d entries, want 1", st.Cache.Entries)
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(2, 1)
	c.Put("a", "ds", Answer{IDs: []data.PointID{1}})
	c.Put("b", "ds", Answer{IDs: []data.PointID{2}})
	c.Put("c", "ds", Answer{IDs: []data.PointID{3}})
	if _, ok := c.Get("a"); ok {
		t.Error("LRU entry a survived past capacity")
	}
	if _, ok := c.Get("c"); !ok {
		t.Error("newest entry c was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 2 entries", st)
	}

	// Touching an entry must protect it from eviction.
	c.Get("b")
	c.Put("d", "ds", Answer{IDs: []data.PointID{4}})
	if _, ok := c.Get("b"); !ok {
		t.Error("recently used entry b was evicted")
	}
}

func TestCacheDisabled(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{CacheCapacity: -1})
	schema, _ := s.Schema("hotels")
	pref := mustPref(t, schema, "Hotel-group: T<M<*")
	for i := 0; i < 3; i++ {
		if _, outcome, err := s.Query(context.Background(), "hotels", pref); err != nil || outcome != OutcomeEngine {
			t.Fatalf("query %d: outcome=%v err=%v with caching disabled", i, outcome, err)
		}
	}
	if st := s.Stats(); st.Cache.Hits != 0 || st.Cache.Capacity != 0 {
		t.Errorf("disabled cache stats = %+v", st.Cache)
	}
}

func TestMaintenanceInvalidatesCache(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsa"}, Options{})
	schema, _ := s.Schema("hotels")
	pref := mustPref(t, schema, "Hotel-group: T<M<*")

	before, _, err := s.Query(context.Background(), "hotels", pref)
	if err != nil {
		t.Fatal(err)
	}
	// A cheap 5-star T hotel dominates everything in sight.
	id, err := s.Insert("hotels", []float64{100, -5}, []order.Value{0})
	if err != nil {
		t.Fatal(err)
	}
	after, outcome, err := s.Query(context.Background(), "hotels", pref)
	if err != nil {
		t.Fatal(err)
	}
	// The cached answer is patched across the insert: one scan of its ids
	// plus the inserted point.
	if outcome != OutcomeExact {
		t.Errorf("post-insert query outcome = %v, want exact", outcome)
	}
	if reflect.DeepEqual(before, after) {
		t.Errorf("insert did not change the skyline: %v", after)
	}
	if !reflect.DeepEqual(after, []data.PointID{id}) {
		t.Errorf("skyline after dominating insert = %v, want [%d]", after, id)
	}

	if err := s.Delete("hotels", id); err != nil {
		t.Fatal(err)
	}
	restored, outcome, err := s.Query(context.Background(), "hotels", pref)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeEngine {
		t.Errorf("post-delete query outcome = %v, want engine", outcome)
	}
	if !reflect.DeepEqual(restored, before) {
		t.Errorf("skyline after delete = %v, want %v", restored, before)
	}
}

func TestMaintenanceOnNonMaintainableEngine(t *testing.T) {
	// Explicitly frozen dataset: the engine could take maintenance, but the
	// registration says no.
	s := table1Service(t, EngineConfig{Kind: "sfsd", ReadOnly: true}, Options{})
	if _, err := s.Insert("hotels", []float64{1, 2}, []order.Value{0}); !errors.Is(err, ErrNotMaintainable) {
		t.Errorf("Insert on read-only SFS-D: %v, want ErrNotMaintainable", err)
	}
	if err := s.Delete("hotels", 0); !errors.Is(err, ErrNotMaintainable) {
		t.Errorf("Delete on read-only SFS-D: %v, want ErrNotMaintainable", err)
	}
	if info := s.Datasets(); len(info) != 1 || info[0].Maintainable || !info[0].ReadOnly {
		t.Errorf("read-only dataset info = %+v", info)
	}
}

// TestMaintenanceOnScanEngines: with the versioned store, the scan engines
// accept Insert/Delete and queries immediately reflect them.
func TestMaintenanceOnScanEngines(t *testing.T) {
	for _, kind := range []string{"sfsd", "parallel-sfs", "parallel-hybrid", "ipo", "hybrid"} {
		s := table1Service(t, EngineConfig{Kind: kind}, Options{})
		schema, _ := s.Schema("hotels")
		pref := mustPref(t, schema, "Hotel-group: T<M<*")
		before, _, err := s.Query(context.Background(), "hotels", pref)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		// A cheap 5-star T hotel dominates everything in sight.
		id, err := s.Insert("hotels", []float64{100, -5}, []order.Value{0})
		if err != nil {
			t.Fatalf("%s: Insert: %v", kind, err)
		}
		after, _, err := s.Query(context.Background(), "hotels", pref)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(after, []data.PointID{id}) {
			t.Errorf("%s: skyline after dominating insert = %v, want [%d]", kind, after, id)
		}
		if err := s.Delete("hotels", id); err != nil {
			t.Fatalf("%s: Delete: %v", kind, err)
		}
		if err := s.Delete("hotels", id); !errors.Is(err, ErrUnknownPoint) {
			t.Errorf("%s: double delete: %v, want ErrUnknownPoint", kind, err)
		}
		restored, _, err := s.Query(context.Background(), "hotels", pref)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(restored, before) {
			t.Errorf("%s: skyline after delete = %v, want %v", kind, restored, before)
		}
		// The rendered point for a deleted id must be gone (snapshot
		// read-through), and live ids must render.
		if _, err := s.Point("hotels", id); !errors.Is(err, ErrUnknownPoint) {
			t.Errorf("%s: Point(deleted) = %v, want ErrUnknownPoint", kind, err)
		}
		if _, err := s.Point("hotels", before[0]); err != nil {
			t.Errorf("%s: Point(live): %v", kind, err)
		}
	}
}

func TestCanonicalFormExecutesAgainstRestrictedTree(t *testing.T) {
	// Materialize only {T, M} on the nominal dimension: the raw total order
	// "T<M<H" names the unmaterialized H and would fail against the tree,
	// but its canonical form "T<M<*" does not. The executor must run the
	// canonical form, so the outcome cannot depend on the query's spelling
	// or on cache warmth.
	s := New(Options{})
	err := s.AddDataset("hotels", data.Table1(), EngineConfig{
		Kind: "ipo",
		Tree: ipotree.Options{Values: [][]order.Value{{0, 2}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	schema, _ := s.Schema("hotels")
	total := mustPref(t, schema, "Hotel-group: T<M<H")
	ids, outcome, err := s.Query(context.Background(), "hotels", total)
	if err != nil {
		t.Fatalf("total-order spelling failed against restricted tree: %v", err)
	}
	if outcome != OutcomeEngine {
		t.Errorf("cold query outcome = %v, want engine", outcome)
	}
	baseline, _ := core.NewSFSD(data.Table1())
	want, _ := baseline.Skyline(context.Background(), total)
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("ids = %v, want %v", ids, want)
	}
}

func TestReAddDatasetCannotServeStaleCache(t *testing.T) {
	s := New(Options{})
	if err := s.AddDataset("d", data.Table1(), EngineConfig{Kind: "sfsd"}); err != nil {
		t.Fatal(err)
	}
	pref := data.Table1().Schema().EmptyPreference()
	staleState, err := s.Registry().State("d")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(context.Background(), "d", pref); err != nil {
		t.Fatal(err)
	}

	s.RemoveDataset("d")
	// Simulate an in-flight query from before the removal completing late:
	// its Put lands after InvalidateDataset, tagged with the old state.
	s.Cache().Put(cacheKey("d", staleState, pref.CacheKey()), "d", Answer{IDs: []data.PointID{99}})

	// Re-add the same name over different data (packages a and b only,
	// where a dominates b: skyline = [0]).
	small, err := data.Table1().WithPoints(data.Table1().Points()[:2])
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("d", small, EngineConfig{Kind: "sfsd"}); err != nil {
		t.Fatal(err)
	}
	newState, err := s.Registry().State("d")
	if err != nil {
		t.Fatal(err)
	}
	if newState == staleState {
		t.Fatalf("re-registration reused state token %q", newState)
	}
	ids, outcome, err := s.Query(context.Background(), "d", pref)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeEngine {
		t.Errorf("query after re-add outcome = %v, want engine", outcome)
	}
	if !reflect.DeepEqual(ids, []data.PointID{0}) {
		t.Errorf("ids = %v, want [0] (the stale entry was [99])", ids)
	}
}

func TestRegistryLifecycle(t *testing.T) {
	s := New(Options{})
	if err := s.AddDataset("", data.Table1(), EngineConfig{}); err == nil {
		t.Error("empty name accepted")
	}
	if err := s.AddDataset("a", nil, EngineConfig{}); err == nil {
		t.Error("nil dataset accepted")
	}
	if err := s.AddDataset("a", data.Table1(), EngineConfig{Kind: "bogus"}); err == nil {
		t.Error("bogus engine kind accepted")
	}
	if err := s.AddDataset("a", data.Table1(), EngineConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddDataset("a", data.Table3(), EngineConfig{}); !errors.Is(err, ErrDuplicateDataset) {
		t.Errorf("duplicate add: %v, want ErrDuplicateDataset", err)
	}
	if err := s.AddDataset("b", data.Table3(), EngineConfig{Kind: "ipo"}); err != nil {
		t.Fatal(err)
	}
	if got := s.Registry().Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("Names() = %v", got)
	}
	infos := s.Datasets()
	if len(infos) != 2 || infos[0].Name != "a" || infos[1].Name != "b" {
		t.Fatalf("Datasets() = %+v", infos)
	}
	if !infos[0].Maintainable || infos[0].Engine != "SFS-A" {
		t.Errorf("dataset a info = %+v", infos[0])
	}
	// With the versioned store, the tree-backed kinds are maintainable too.
	if !infos[1].Maintainable || infos[1].Engine != "IPO Tree" {
		t.Errorf("dataset b info = %+v", infos[1])
	}
	if !s.RemoveDataset("a") {
		t.Error("RemoveDataset(a) = false")
	}
	if s.RemoveDataset("a") {
		t.Error("second RemoveDataset(a) = true")
	}
	if _, _, err := s.Query(context.Background(), "a", data.Table1().Schema().EmptyPreference()); !errors.Is(err, ErrUnknownDataset) {
		t.Errorf("query after remove: %v, want ErrUnknownDataset", err)
	}
}

func TestBatch(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsa"}, Options{Workers: 2})
	schema, _ := s.Schema("hotels")
	baseline, err := core.NewSFSD(data.Table1())
	if err != nil {
		t.Fatal(err)
	}
	specs := []string{"", "Hotel-group: T<M<*", "Hotel-group: H<M<*", "Hotel-group: T<M<*", "Hotel-group: M<*"}
	prefs := make([]*order.Preference, len(specs))
	for i, spec := range specs {
		prefs[i] = mustPref(t, schema, spec)
	}
	results := s.Batch(context.Background(), "hotels", prefs)
	if len(results) != len(specs) {
		t.Fatalf("got %d results, want %d", len(results), len(specs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch[%d]: %v", i, r.Err)
		}
		want, _ := baseline.Skyline(context.Background(), prefs[i])
		if !reflect.DeepEqual(r.IDs, want) {
			t.Errorf("batch[%d] = %v, want %v", i, r.IDs, want)
		}
	}
	// The duplicate of specs[1] must have hit the cache (it cannot race: the
	// cache is populated before Query returns, but batch members run
	// concurrently, so assert on totals instead of positions).
	if st := s.Stats(); st.Cache.Hits == 0 && st.Cache.Misses == uint64(len(specs)) {
		t.Logf("note: duplicate ran concurrently with its twin; hits=%d", st.Cache.Hits)
	}

	// Errors are positional, not fatal.
	bad, err := order.EmptyPreference(5)
	if err != nil {
		t.Fatal(err)
	}
	mixed := s.Batch(context.Background(), "hotels", []*order.Preference{prefs[0], bad, nil})
	if mixed[0].Err != nil {
		t.Errorf("good member failed: %v", mixed[0].Err)
	}
	if mixed[1].Err == nil {
		t.Error("wrong-schema member succeeded")
	}
	if mixed[2].Err == nil {
		t.Error("nil member succeeded")
	}
}

// TestBatchDedupsCanonicalDuplicates is the satellite regression for batch
// dedup: members that are canonically equal — even under different spellings —
// are answered once and fanned back by position, on both the shared-scan path
// and the per-member fallback. The fallback case caches one of the two
// groups first, so the batch is left with a single miss, which runs as an
// independent engine query.
func TestBatchDedupsCanonicalDuplicates(t *testing.T) {
	for _, name := range []string{"vectorized", "fallback"} {
		t.Run(name, func(t *testing.T) {
			s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{Workers: 2})
			schema, _ := s.Schema("hotels")
			// Members 0, 2 and 4 are canonically equal: the full total order
			// "T<M<H" reduces to the prefix "T<M<*". Member 1 is distinct.
			prefs := []*order.Preference{
				mustPref(t, schema, "Hotel-group: T<M<*"),
				mustPref(t, schema, "Hotel-group: H<M<*"),
				mustPref(t, schema, "Hotel-group: T<M<H"),
				mustPref(t, schema, "Hotel-group: H<M<*"),
				mustPref(t, schema, "Hotel-group: T<M<*"),
			}
			var pre uint64 // queries (and cache misses) spent pre-caching
			if name == "fallback" {
				if _, _, err := s.Query(context.Background(), "hotels", prefs[1]); err != nil {
					t.Fatal(err)
				}
				pre = 1
			}
			results := s.Batch(context.Background(), "hotels", prefs)
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("batch[%d]: %v", i, r.Err)
				}
			}
			for _, pair := range [][2]int{{0, 2}, {0, 4}, {1, 3}} {
				a, b := results[pair[0]], results[pair[1]]
				if !reflect.DeepEqual(a.IDs, b.IDs) || a.Outcome != b.Outcome {
					t.Errorf("duplicate members %v diverged: %v/%v vs %v/%v",
						pair, a.IDs, a.Outcome, b.IDs, b.Outcome)
				}
			}
			baseline, err := core.NewSFSD(data.Table1())
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				want, _ := baseline.Skyline(context.Background(), prefs[i])
				if !reflect.DeepEqual(r.IDs, want) {
					t.Errorf("batch[%d] = %v, want %v", i, r.IDs, want)
				}
			}
			st := s.Stats()
			// Five members, two canonical groups: two queries and two engine
			// runs in all; a pre-cached group turns one batch miss into a hit.
			if st.Queries != 2+pre {
				t.Errorf("Queries = %d, want %d", st.Queries, 2+pre)
			}
			if st.Cache.Misses != 2 || st.Cache.Hits != pre {
				t.Errorf("cache stats = %+v, want 2 misses / %d hits", st.Cache, pre)
			}
			if len(st.Datasets) != 1 || st.Datasets[0].Queries != 2 {
				t.Errorf("dataset stats = %+v, want 2 engine queries", st.Datasets)
			}

			// A second identical batch is answered wholly from cache: the
			// engine-query count must not move.
			results = s.Batch(context.Background(), "hotels", prefs)
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("cached batch[%d]: %v", i, r.Err)
				}
				if !r.Outcome.CacheHit() {
					t.Errorf("cached batch[%d] outcome = %v, want a cache hit", i, r.Outcome)
				}
			}
			st = s.Stats()
			if st.Queries != 4+pre {
				t.Errorf("Queries after cached batch = %d, want %d", st.Queries, 4+pre)
			}
			if st.Datasets[0].Queries != 2 {
				t.Errorf("engine queries after cached batch = %d, want 2 (unchanged)", st.Datasets[0].Queries)
			}
		})
	}
}

// TestBatchSingleMissCountsOnce: a batch member that missed the cache is
// probed once. When it is the batch's only miss it runs on the engine
// directly, without a second exact-key lookup and lattice walk, so the cache
// records exactly one miss for it.
func TestBatchSingleMissCountsOnce(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{})
	schema, _ := s.Schema("hotels")
	cached := mustPref(t, schema, "Hotel-group: T<M<*")
	missed := mustPref(t, schema, "Hotel-group: H<M<*")
	if _, _, err := s.Query(context.Background(), "hotels", cached); err != nil {
		t.Fatal(err)
	}
	before := s.Stats().Cache
	results := s.Batch(context.Background(), "hotels", []*order.Preference{cached, missed})
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("batch[%d]: %v", i, r.Err)
		}
	}
	if results[0].Outcome != OutcomeExact || results[1].Outcome != OutcomeEngine {
		t.Errorf("outcomes = %v, %v; want exact, engine", results[0].Outcome, results[1].Outcome)
	}
	after := s.Stats().Cache
	if d := after.Misses - before.Misses; d != 1 {
		t.Errorf("cache misses rose by %d for one missed member, want 1", d)
	}
	if d := after.Hits - before.Hits; d != 1 {
		t.Errorf("cache hits rose by %d, want 1", d)
	}
}

func TestStatsCounters(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{})
	schema, _ := s.Schema("hotels")
	pref := mustPref(t, schema, "Hotel-group: T<M<*")
	for i := 0; i < 4; i++ {
		if _, _, err := s.Query(context.Background(), "hotels", pref); err != nil {
			t.Fatal(err)
		}
	}
	s.Batch(context.Background(), "hotels", []*order.Preference{pref, pref})
	st := s.Stats()
	// The two batch members are canonically equal, so they dedup to one
	// query and one cache probe.
	if st.Queries != 5 {
		t.Errorf("Queries = %d, want 5", st.Queries)
	}
	if st.Batches != 1 {
		t.Errorf("Batches = %d, want 1", st.Batches)
	}
	if st.Cache.Hits != 4 || st.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 4 hits / 1 miss", st.Cache)
	}
	if len(st.Datasets) != 1 || st.Datasets[0].Queries != 1 {
		// Only the single miss reached the engine; the rest were cache hits.
		t.Errorf("dataset stats = %+v, want 1 engine query", st.Datasets)
	}
	if st.Workers <= 0 {
		t.Errorf("Workers = %d", st.Workers)
	}
}

func TestCacheShardDistribution(t *testing.T) {
	c := NewCache(64, 8)
	for i := 0; i < 64; i++ {
		c.Put(fmt.Sprintf("key-%d", i), "ds", Answer{})
	}
	if got := c.Len(); got < 32 {
		// Perfectly even filling is not guaranteed (per-shard caps), but a
		// healthy hash should land well over half before evictions dominate.
		t.Errorf("cache holds %d of 64 entries; hash badly skewed", got)
	}
	c.InvalidateDataset("ds")
	if c.Len() != 0 {
		t.Errorf("entries survived InvalidateDataset: %d", c.Len())
	}
}
