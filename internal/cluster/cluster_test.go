package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/gen"
	"prefsky/internal/order"
	"prefsky/internal/service"
	"prefsky/internal/skyline"
)

// testShard is one in-process shard: a real ShardHandler behind a real HTTP
// server, with a swappable inner handler so tests can kill, restart (fresh
// empty service) and corrupt it without changing its URL.
type testShard struct {
	srv      *httptest.Server
	mu       sync.Mutex
	inner    http.Handler
	down     atomic.Bool
	requests atomic.Uint64
}

func (s *testShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.down.Load() {
		shardError(w, http.StatusServiceUnavailable, "down", "shard killed by test")
		return
	}
	s.mu.Lock()
	h := s.inner
	s.mu.Unlock()
	h.ServeHTTP(w, r)
}

// swap replaces the inner handler (restart/corruption simulation).
func (s *testShard) swap(h http.Handler) {
	s.mu.Lock()
	s.inner = h
	s.mu.Unlock()
}

// restart simulates a process restart: a fresh service with no partitions.
// The shard answers again immediately, but with unknown-dataset until the
// coordinator's probe re-pushes.
func (s *testShard) restart() {
	s.swap(NewShardHandler(service.New(service.Options{}), service.EngineConfig{Kind: "sfsd"}))
	s.down.Store(false)
}

func newTestShard(t *testing.T) *testShard {
	t.Helper()
	ts := &testShard{}
	ts.restart()
	ts.srv = httptest.NewServer(ts)
	t.Cleanup(ts.srv.Close)
	return ts
}

// testCluster boots n shards and a probe-disabled coordinator over them
// (tests drive repair explicitly with ProbeOnce).
func testCluster(t *testing.T, n int, opts Options) (*Coordinator, []*testShard) {
	t.Helper()
	shards := make([]*testShard, n)
	specs := make([]ShardSpec, n)
	for i := range shards {
		shards[i] = newTestShard(t)
		specs[i] = ShardSpec{URLs: []string{shards[i].srv.URL}}
	}
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = -1
	}
	co, err := New(specs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(co.Close)
	return co, shards
}

func mustPref(t *testing.T, schema *data.Schema, spec string) *order.Preference {
	t.Helper()
	p, err := data.ParsePreference(schema, spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// oracle computes the skyline of an arbitrary point set (global ids) the
// slow, single-node way.
func oracle(t *testing.T, schema *data.Schema, pts []data.Point, pref *order.Preference) []data.PointID {
	t.Helper()
	cmp, err := dominance.NewComparator(schema, pref.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	return skyline.SFS(pts, cmp)
}

var testPrefs = []string{
	"",
	"nom0: v1<v0<*",
	"nom0: v0<*",
	"nom0: v2<v1<*; nom1: v0<*",
	"nom1: v3<v1<v0<*",
}

// The tentpole correctness claim: scatter-gather over any shard count and
// either partitioner answers exactly the single-node skyline.
func TestScatterGatherMatchesOracle(t *testing.T) {
	for _, kind := range []gen.Kind{gen.Independent, gen.AntiCorrelated} {
		ds := genDataset(t, 4000, kind, 3)
		for _, part := range []Partitioner{HashPartitioner{}, GridPartitioner{}} {
			for _, n := range []int{1, 2, 3} {
				co, _ := testCluster(t, n, Options{Partitioner: part})
				if err := co.AddDataset(context.Background(), "d", ds); err != nil {
					t.Fatalf("%v/%s/%d: AddDataset: %v", kind, part.Name(), n, err)
				}
				for _, spec := range testPrefs {
					pref := mustPref(t, ds.Schema(), spec)
					res, err := co.Query(context.Background(), "d", pref, FailStrict)
					if err != nil {
						t.Fatalf("%v/%s/%d shards, %q: %v", kind, part.Name(), n, spec, err)
					}
					want := oracle(t, ds.Schema(), ds.Points(), pref)
					if !reflect.DeepEqual(res.IDs, want) {
						t.Errorf("%v/%s/%d shards, %q: got %d ids, want %d (got %v want %v)",
							kind, part.Name(), n, spec, len(res.IDs), len(want), res.IDs, want)
					}
					if res.Partial || len(res.Unavailable) > 0 {
						t.Errorf("%v/%s/%d shards, %q: unexpectedly partial", kind, part.Name(), n, spec)
					}
				}
			}
		}
	}
}

// A repeated query must be an exact cache hit that never touches the
// network; a refining query must be answered from the semantic lattice,
// also without network.
func TestCoordinatorCacheHitsSkipNetwork(t *testing.T) {
	ds := genDataset(t, 3000, gen.AntiCorrelated, 5)
	co, shards := testCluster(t, 3, Options{})
	if err := co.AddDataset(context.Background(), "d", ds); err != nil {
		t.Fatal(err)
	}
	coarse := mustPref(t, ds.Schema(), "nom0: v1<*")
	fine := mustPref(t, ds.Schema(), "nom0: v1<v0<*")

	cold, err := co.Query(context.Background(), "d", coarse, FailStrict)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Outcome != service.OutcomeEngine {
		t.Fatalf("cold outcome = %v, want engine", cold.Outcome)
	}

	baseline := uint64(0)
	for _, s := range shards {
		baseline += s.requests.Load()
	}
	hit, err := co.Query(context.Background(), "d", coarse, FailStrict)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Outcome != service.OutcomeExact {
		t.Errorf("repeat outcome = %v, want exact hit", hit.Outcome)
	}
	if !reflect.DeepEqual(hit.IDs, cold.IDs) {
		t.Error("cache hit returned different ids")
	}

	sem, err := co.Query(context.Background(), "d", fine, FailStrict)
	if err != nil {
		t.Fatal(err)
	}
	if sem.Outcome != service.OutcomeSemantic {
		t.Errorf("refining outcome = %v, want semantic hit", sem.Outcome)
	}
	if want := oracle(t, ds.Schema(), ds.Points(), fine); !reflect.DeepEqual(sem.IDs, want) {
		t.Errorf("semantic result wrong: got %v want %v", sem.IDs, want)
	}

	after := uint64(0)
	for _, s := range shards {
		after += s.requests.Load()
	}
	if after != baseline {
		t.Errorf("cache-hit path touched the network: %d shard requests during hits", after-baseline)
	}
}

// With the result cache off nothing is ever cached under a coarser key, so
// the semantic path must return before enumerating the refinement lattice:
// no allocation at all. Queries still answer exactly from the shards.
func TestCacheOffSkipsLattice(t *testing.T) {
	ds := genDataset(t, 2000, gen.AntiCorrelated, 11)
	co, _ := testCluster(t, 2, Options{CacheCapacity: -1})
	if err := co.AddDataset(context.Background(), "d", ds); err != nil {
		t.Fatal(err)
	}
	pref := mustPref(t, ds.Schema(), "nom0: v2<v1<v0<*; nom1: v3<v0<*").Canonical()
	cd, err := co.lookup("d")
	if err != nil {
		t.Fatal(err)
	}
	state := cd.state()
	key := service.CacheKey("d", state, pref.CacheKey())
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := co.semanticHit(cd, "d", state, key, pref); ok {
			t.Fatal("semantic hit with the cache off")
		}
	})
	if allocs != 0 {
		t.Errorf("semanticHit with the cache off: %v allocs per call, want 0", allocs)
	}
	for i := 0; i < 2; i++ {
		res, err := co.Query(context.Background(), "d", pref, FailStrict)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != service.OutcomeEngine {
			t.Errorf("query %d outcome = %v, want engine", i, res.Outcome)
		}
		if want := oracle(t, ds.Schema(), ds.Points(), pref); !reflect.DeepEqual(res.IDs, want) {
			t.Errorf("query %d: got %d ids, want %d", i, len(res.IDs), len(want))
		}
	}
}

// Batch must dedup canonically equal members, answer parse-clean members vs
// the oracle, and mark repeat members as cache hits.
func TestCoordinatorBatch(t *testing.T) {
	ds := genDataset(t, 3000, gen.Independent, 9)
	co, _ := testCluster(t, 2, Options{})
	if err := co.AddDataset(context.Background(), "d", ds); err != nil {
		t.Fatal(err)
	}
	schema := ds.Schema()
	// v1<v0<v2<v3<v4<v5 is a total order; its canonical form equals the
	// forced-last prefix "v1<v0<v2<v3<v4<*", so the two dedup to one scatter.
	specs := []string{"nom0: v1<v0<*", "nom0: v1<v0<*", ""}
	prefs := make([]*order.Preference, len(specs))
	for i, s := range specs {
		prefs[i] = mustPref(t, schema, s)
	}
	results := co.Batch(context.Background(), "d", prefs, FailStrict)
	if len(results) != len(prefs) {
		t.Fatalf("%d results for %d prefs", len(results), len(prefs))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("member %d: %v", i, r.Err)
		}
		if want := oracle(t, schema, ds.Points(), prefs[i]); !reflect.DeepEqual(r.IDs, want) {
			t.Errorf("member %d: got %d ids, want %d", i, len(r.IDs), len(want))
		}
	}
	// Second batch: everything is an exact hit.
	for i, r := range co.Batch(context.Background(), "d", prefs, FailStrict) {
		if r.Err != nil || r.Outcome != service.OutcomeExact {
			t.Errorf("repeat member %d: outcome %v err %v, want exact hit", i, r.Outcome, r.Err)
		}
	}
}

// Replacing a dataset bumps the generation: stale cache entries become
// unreachable and queries see the new data.
func TestAddDatasetInvalidatesCache(t *testing.T) {
	small := genDataset(t, 500, gen.Independent, 1)
	big := genDataset(t, 2000, gen.Independent, 2)
	co, _ := testCluster(t, 2, Options{})
	ctx := context.Background()
	if err := co.AddDataset(ctx, "d", small); err != nil {
		t.Fatal(err)
	}
	pref := mustPref(t, small.Schema(), "nom0: v0<*")
	first, err := co.Query(ctx, "d", pref, FailStrict)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.AddDataset(ctx, "d", big); err != nil {
		t.Fatal(err)
	}
	second, err := co.Query(ctx, "d", pref, FailStrict)
	if err != nil {
		t.Fatal(err)
	}
	if second.Outcome != service.OutcomeEngine {
		t.Errorf("post-replace outcome = %v, want engine (stale cache served?)", second.Outcome)
	}
	if want := oracle(t, big.Schema(), big.Points(), pref); !reflect.DeepEqual(second.IDs, want) {
		t.Errorf("post-replace result wrong (got %d ids, want %d; first had %d)", len(second.IDs), len(want), len(first.IDs))
	}
}

// Stats must aggregate shard health and dataset records.
func TestCoordinatorStats(t *testing.T) {
	ds := genDataset(t, 1000, gen.Independent, 4)
	co, shards := testCluster(t, 3, Options{})
	ctx := context.Background()
	if err := co.AddDataset(ctx, "d", ds); err != nil {
		t.Fatal(err)
	}
	co.ProbeOnce(ctx)
	st := co.Stats()
	if len(st.Shards) != 3 {
		t.Fatalf("%d shard rows", len(st.Shards))
	}
	for _, sh := range st.Shards {
		if sh.State != "ok" {
			t.Errorf("shard %s state %q, want ok", sh.Name, sh.State)
		}
	}
	if len(st.Datasets) != 1 || st.Datasets[0].Points != ds.N() || st.Datasets[0].Shards != 3 {
		t.Errorf("dataset stats wrong: %+v", st.Datasets)
	}
	if got := co.Unreachable(); len(got) != 0 {
		t.Errorf("unreachable = %v, want none", got)
	}

	shards[1].down.Store(true)
	co.ProbeOnce(ctx)
	if got := co.Unreachable(); len(got) != 1 || got[0] != shards[1].srv.URL {
		t.Errorf("unreachable = %v, want [%s]", got, shards[1].srv.URL)
	}
}
