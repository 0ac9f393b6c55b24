package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"prefsky/internal/core"
	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/ipotree"
	"prefsky/internal/order"
)

// TestSemanticHitServesRefinedPreference: with a coarser preference's skyline
// cached, a refined preference is answered from the lattice — correct ids,
// OutcomeSemantic, counters advanced — and the served result is inserted
// under its own key so the next identical query hits exactly.
func TestSemanticHitServesRefinedPreference(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{})
	schema, _ := s.Schema("hotels")
	coarse := mustPref(t, schema, "Hotel-group: T<*")
	refined := mustPref(t, schema, "Hotel-group: T<M<*")

	if _, outcome, err := s.Query(context.Background(), "hotels", coarse); err != nil || outcome != OutcomeEngine {
		t.Fatalf("coarse warmup: outcome=%v err=%v", outcome, err)
	}
	ids, outcome, err := s.Query(context.Background(), "hotels", refined)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeSemantic {
		t.Fatalf("refined query outcome = %v, want semantic", outcome)
	}
	baseline, _ := core.NewSFSD(data.Table1())
	want, _ := baseline.Skyline(context.Background(), refined)
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("semantic result %v, want %v", ids, want)
	}
	st := s.Stats()
	if st.Cache.SemanticHits != 1 {
		t.Errorf("SemanticHits = %d, want 1", st.Cache.SemanticHits)
	}
	if st.Cache.Misses != 2 || st.Cache.Hits != 0 {
		t.Errorf("cache stats = %+v, want 2 exact misses / 0 hits", st.Cache)
	}

	// The semantic result was cached under its own key: both the same
	// spelling and a canonically equal one now hit exactly.
	if _, outcome, err := s.Query(context.Background(), "hotels", refined); err != nil || outcome != OutcomeExact {
		t.Fatalf("re-query outcome=%v err=%v, want exact hit", outcome, err)
	}
	total := mustPref(t, schema, "Hotel-group: T<M<H")
	if _, outcome, err := s.Query(context.Background(), "hotels", total); err != nil || outcome != OutcomeExact {
		t.Fatalf("canonically equal re-query outcome=%v err=%v, want exact hit", outcome, err)
	}
}

// TestSemanticHitPrefersNearestAncestor: with both a grandparent and a
// parent cached, the lattice walk must serve from the parent (nearest-first
// probing — the most refined cached ancestor has the smallest skyline). The
// probe order is observable through LRU recency: a Probe marks the ancestor
// it reads most recently used, so with a capacity-2 single-shard cache the
// Put of the refined result evicts whichever ancestor was *not* probed. A
// coarsest-first regression would evict the parent instead of the
// grandparent.
func TestSemanticHitPrefersNearestAncestor(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{CacheCapacity: 2, CacheShards: 1})
	schema, _ := s.Schema("hotels")
	grand := mustPref(t, schema, "").Canonical()
	parent := mustPref(t, schema, "Hotel-group: T<*").Canonical()
	refined := mustPref(t, schema, "Hotel-group: T<M<*")
	if _, outcome, err := s.Query(context.Background(), "hotels", grand); err != nil || outcome != OutcomeEngine {
		t.Fatalf("grandparent warmup: outcome=%v err=%v", outcome, err)
	}
	// The parent itself is already served from the grandparent's entry.
	if _, outcome, err := s.Query(context.Background(), "hotels", parent); err != nil || outcome != OutcomeSemantic {
		t.Fatalf("parent warmup: outcome=%v err=%v", outcome, err)
	}
	ids, outcome, err := s.Query(context.Background(), "hotels", refined)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeSemantic {
		t.Fatalf("refined query outcome = %v, want semantic", outcome)
	}
	if want := snapshotOracle(t, s, "hotels", refined); !reflect.DeepEqual(ids, want) {
		t.Fatalf("refined result %v, want %v", ids, want)
	}
	state, err := s.Registry().State("hotels")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Cache().Probe(cacheKey("hotels", state, parent.CacheKey())); !ok {
		t.Error("parent entry was evicted: the lattice walk did not probe nearest-first")
	}
	if _, ok := s.Cache().Probe(cacheKey("hotels", state, grand.CacheKey())); ok {
		t.Error("grandparent entry survived: the refined Put did not evict the least recently used ancestor")
	}
}

// TestSemanticDisabled: a negative candidate limit turns the lattice path
// off; refined queries run cold.
func TestSemanticDisabled(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{SemanticCandidateLimit: -1})
	schema, _ := s.Schema("hotels")
	if _, _, err := s.Query(context.Background(), "hotels", mustPref(t, schema, "Hotel-group: T<*")); err != nil {
		t.Fatal(err)
	}
	_, outcome, err := s.Query(context.Background(), "hotels", mustPref(t, schema, "Hotel-group: T<M<*"))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeEngine {
		t.Fatalf("outcome = %v with semantic path disabled, want engine", outcome)
	}
	if st := s.Stats(); st.Cache.SemanticHits != 0 {
		t.Errorf("SemanticHits = %d with semantic path disabled", st.Cache.SemanticHits)
	}
}

// TestSemanticLimitSkipsLargeAncestors: a cached ancestor bigger than the
// candidate limit is not scanned; the query falls through to the engine.
func TestSemanticLimitSkipsLargeAncestors(t *testing.T) {
	probe := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{})
	schema, _ := probe.Schema("hotels")
	coarse := mustPref(t, schema, "Hotel-group: T<*")
	coarseIDs, _, err := probe.Query(context.Background(), "hotels", coarse)
	if err != nil {
		t.Fatal(err)
	}
	if len(coarseIDs) < 2 {
		t.Skipf("coarse skyline has %d points; cannot set a limit below it", len(coarseIDs))
	}
	s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{SemanticCandidateLimit: len(coarseIDs) - 1})
	if _, _, err := s.Query(context.Background(), "hotels", coarse); err != nil {
		t.Fatal(err)
	}
	_, outcome, err := s.Query(context.Background(), "hotels", mustPref(t, schema, "Hotel-group: T<M<*"))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeEngine {
		t.Fatalf("outcome = %v with ancestor above the candidate limit, want engine", outcome)
	}
}

// TestSemanticMissAfterMaintenance: after an insert the cached ancestor
// reflects an older version; the refined query is served from it plus the
// inserted point, and the answer must equal a scan of the current snapshot.
func TestSemanticMissAfterMaintenance(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{})
	schema, _ := s.Schema("hotels")
	if _, _, err := s.Query(context.Background(), "hotels", mustPref(t, schema, "Hotel-group: T<*")); err != nil {
		t.Fatal(err)
	}
	// A cheap 5-star M hotel: changes the refined skyline.
	id, err := s.Insert("hotels", []float64{100, -5}, []order.Value{2})
	if err != nil {
		t.Fatal(err)
	}
	refined := mustPref(t, schema, "Hotel-group: T<M<*")
	ids, outcome, err := s.Query(context.Background(), "hotels", refined)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeSemantic {
		t.Fatalf("post-insert refined query outcome = %v, want semantic", outcome)
	}
	want := snapshotOracle(t, s, "hotels", refined)
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("post-insert skyline = %v, want %v", ids, want)
	}
	if !slicesContains(ids, id) {
		t.Fatalf("dominating insert %d missing from skyline %v", id, ids)
	}
}

func slicesContains(ids []data.PointID, id data.PointID) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestSemanticHitSurvivesCompaction: compaction rewrites row coordinates but
// preserves the version, so cached ancestors stay servable — the id→row remap
// must resolve against the compacted layout.
func TestSemanticHitSurvivesCompaction(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsd", CompactThreshold: -1}, Options{})
	schema, _ := s.Schema("hotels")
	// Mutate first so compaction has tombstones and delta rows to fold in and
	// ids are no longer dense (delete an early id, insert a new point).
	if err := s.Delete("hotels", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("hotels", []float64{2000, -3}, []order.Value{1}); err != nil {
		t.Fatal(err)
	}
	coarse := mustPref(t, schema, "Hotel-group: T<*")
	if _, outcome, err := s.Query(context.Background(), "hotels", coarse); err != nil || outcome != OutcomeEngine {
		t.Fatalf("coarse warmup: outcome=%v err=%v", outcome, err)
	}
	e, err := s.reg.entry("hotels")
	if err != nil {
		t.Fatal(err)
	}
	e.store.Compact()
	refined := mustPref(t, schema, "Hotel-group: T<M<*")
	ids, outcome, err := s.Query(context.Background(), "hotels", refined)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != OutcomeSemantic {
		t.Fatalf("post-compaction refined query outcome = %v, want semantic", outcome)
	}
	want := snapshotOracle(t, s, "hotels", refined)
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("post-compaction semantic result %v, want %v", ids, want)
	}
}

// TestSemanticPathPreservesEngineRejections: a preference the engine's query
// path rejects — here an unmaterialized value under a Values-restricted IPO
// tree — must keep failing when a coarser ancestor is cached. Whether a
// request errors can never depend on cache warmth.
func TestSemanticPathPreservesEngineRejections(t *testing.T) {
	cfg := EngineConfig{
		Kind: "ipo",
		Tree: ipotree.Options{Values: [][]order.Value{{0, 2}}}, // materialize T and M only
	}
	schema := data.Table1().Schema()
	rejected := mustPref(t, schema, "Hotel-group: T<H<*") // H is unmaterialized

	cold := New(Options{})
	if err := cold.AddDataset("hotels", data.Table1(), cfg); err != nil {
		t.Fatal(err)
	}
	_, _, coldErr := cold.Query(context.Background(), "hotels", rejected)
	if !errors.Is(coldErr, ipotree.ErrNotMaterialized) {
		t.Fatalf("cold rejected query: %v, want ErrNotMaterialized", coldErr)
	}

	warm := New(Options{})
	if err := warm.AddDataset("hotels", data.Table1(), cfg); err != nil {
		t.Fatal(err)
	}
	if _, _, err := warm.Query(context.Background(), "hotels", mustPref(t, schema, "Hotel-group: T<*")); err != nil {
		t.Fatal(err)
	}
	ids, outcome, warmErr := warm.Query(context.Background(), "hotels", rejected)
	if !errors.Is(warmErr, ipotree.ErrNotMaterialized) {
		t.Fatalf("warm rejected query served (outcome %v, ids %v, err %v): the semantic path bypassed the engine's contract",
			outcome, ids, warmErr)
	}
}

// snapshotOracle computes the skyline of the dataset's current snapshot with
// a from-scratch flat SFS-D scan: the reference the semantic path must match.
func snapshotOracle(t *testing.T, s *Service, name string, pref *order.Preference) []data.PointID {
	t.Helper()
	e, err := s.reg.entry(name)
	if err != nil {
		t.Fatal(err)
	}
	snap := e.store.Snapshot()
	cmp, err := dominance.NewComparator(e.schema, pref)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := snap.Project(cmp)
	if err != nil {
		t.Fatal(err)
	}
	return proj.Skyline()
}

// randomChain builds one refinement chain over the schema: a random full
// implicit preference per nominal dimension, trimmed simultaneously to each
// level — chain[0] is the empty preference, chain[len-1] the full one, and
// every later element refines every earlier one (the Theorem 1 fixture shape).
func randomChain(t *testing.T, schema *data.Schema, rng *rand.Rand) []*order.Preference {
	t.Helper()
	fulls := make([]*order.Implicit, schema.NomDims())
	depth := 0
	for d, card := range schema.Cardinalities() {
		x := 1 + rng.Intn(card)
		entries := make([]order.Value, x)
		for i, v := range rng.Perm(card)[:x] {
			entries[i] = order.Value(v)
		}
		fulls[d] = order.MustImplicit(card, entries...)
		if x > depth {
			depth = x
		}
	}
	chain := make([]*order.Preference, 0, depth+1)
	for l := 0; l <= depth; l++ {
		dims := make([]*order.Implicit, len(fulls))
		for d, ip := range fulls {
			dims[d] = ip.Prefix(l)
		}
		chain = append(chain, order.MustPreference(dims...))
	}
	return chain
}

// TestSemanticPathMatchesColdOracle is the randomized property suite of the
// semantic cache: random refinement chains queried in random order with
// inserts, deletes and compactions interleaved, on every store-backed engine
// kind. Every result — engine, exact or semantic — must equal a from-scratch
// flat SFS-D scan of the dataset's current snapshot, and across all seeds the
// semantic path must actually fire.
func TestSemanticPathMatchesColdOracle(t *testing.T) {
	kinds := []string{"sfsd", "parallel-sfs", "ipo", "hybrid"}
	semantic := 0
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		kind := kinds[rng.Intn(len(kinds))]
		card := 3 + rng.Intn(3)
		numDims, nomDims := 1+rng.Intn(2), 1+rng.Intn(2)
		numeric := make([]data.NumericAttr, numDims)
		for i := range numeric {
			numeric[i] = data.NumericAttr{Name: fmt.Sprintf("n%d", i)}
		}
		nominal := make([]*order.Domain, nomDims)
		for i := range nominal {
			dom, err := order.NewAnonymousDomain(fmt.Sprintf("d%d", i), card)
			if err != nil {
				t.Fatal(err)
			}
			nominal[i] = dom
		}
		schema, err := data.NewSchema(numeric, nominal)
		if err != nil {
			t.Fatal(err)
		}
		n := 40 + rng.Intn(80)
		points := make([]data.Point, n)
		for i := range points {
			points[i] = randomServicePoint(schema, card, rng)
		}
		ds, err := data.New(schema, points)
		if err != nil {
			t.Fatal(err)
		}

		svc := New(Options{CacheCapacity: 4096, SemanticCandidateLimit: 1 << 20})
		if err := svc.AddDataset("d", ds, EngineConfig{Kind: kind, CompactThreshold: -1}); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, kind, err)
		}
		e, err := svc.reg.entry("d")
		if err != nil {
			t.Fatal(err)
		}
		chains := make([][]*order.Preference, 3)
		for c := range chains {
			chains[c] = randomChain(t, schema, rng)
		}

		for op := 0; op < 120; op++ {
			switch r := rng.Float64(); {
			case r < 0.65:
				chain := chains[rng.Intn(len(chains))]
				pref := chain[rng.Intn(len(chain))]
				ids, outcome, err := svc.Query(context.Background(), "d", pref)
				if err != nil {
					t.Fatalf("seed %d (%s) op %d: %v", seed, kind, op, err)
				}
				want := snapshotOracle(t, svc, "d", pref)
				if len(ids) != 0 || len(want) != 0 {
					if !reflect.DeepEqual(ids, want) {
						t.Fatalf("seed %d (%s) op %d pref %v: outcome %v returned %v, oracle %v",
							seed, kind, op, pref, outcome, ids, want)
					}
				}
				if outcome == OutcomeSemantic {
					semantic++
				}
			case r < 0.80:
				p := randomServicePoint(schema, card, rng)
				if _, err := svc.Insert("d", p.Num, p.Nom); err != nil {
					t.Fatalf("seed %d (%s) op %d insert: %v", seed, kind, op, err)
				}
			case r < 0.93:
				pts := e.store.Snapshot().Points()
				if len(pts) <= 5 {
					continue
				}
				if err := svc.Delete("d", pts[rng.Intn(len(pts))].ID); err != nil {
					t.Fatalf("seed %d (%s) op %d delete: %v", seed, kind, op, err)
				}
			default:
				e.store.Compact()
			}
		}
	}
	if semantic == 0 {
		t.Fatal("semantic path never fired across all seeds; the property suite is vacuous")
	}
	t.Logf("semantic hits across suite: %d", semantic)
}

// randomServicePoint draws one point on a coarse grid (ties are common).
func randomServicePoint(schema *data.Schema, card int, rng *rand.Rand) data.Point {
	p := data.Point{
		Num: make([]float64, schema.NumDims()),
		Nom: make([]order.Value, schema.NomDims()),
	}
	for d := range p.Num {
		p.Num[d] = float64(rng.Intn(5)) / 4
	}
	for d := range p.Nom {
		p.Nom[d] = order.Value(rng.Intn(card))
	}
	return p
}
