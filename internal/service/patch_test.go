package service

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/order"
	"prefsky/internal/skyline"
)

// engineQueries returns how many times the dataset's engine has run.
func engineQueries(t *testing.T, s *Service) uint64 {
	t.Helper()
	info := s.Datasets()
	if len(info) != 1 {
		t.Fatalf("%d datasets, want 1", len(info))
	}
	return info[0].Queries
}

// TestCachedAnswerPatchedAcrossWrites: a cached answer survives writes. An
// insert the answer dominates leaves it as it is, an insert that enters it
// is merged in, both without running the engine; deleting a member sends
// the query back to the engine.
func TestCachedAnswerPatchedAcrossWrites(t *testing.T) {
	s := table1Service(t, EngineConfig{Kind: "sfsd"}, Options{})
	schema, _ := s.Schema("hotels")
	pref := mustPref(t, schema, "Hotel-group: T<M<*")
	query := func(want Outcome) []data.PointID {
		t.Helper()
		ids, outcome, err := s.Query(context.Background(), "hotels", pref)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != want {
			t.Fatalf("outcome = %v, want %v", outcome, want)
		}
		if oracle := snapshotOracle(t, s, "hotels", pref); !reflect.DeepEqual(ids, oracle) {
			t.Fatalf("ids = %v, want a fresh scan's %v", ids, oracle)
		}
		return ids
	}

	cached := query(OutcomeEngine)
	engine := engineQueries(t, s)

	// 9999 and class 1 in group T: package a (1600, 4, T) dominates it.
	if _, err := s.Insert("hotels", []float64{9999, -1}, []order.Value{0}); err != nil {
		t.Fatal(err)
	}
	if ids := query(OutcomeExact); !reflect.DeepEqual(ids, cached) {
		t.Fatalf("dominated insert changed the answer: %v, was %v", ids, cached)
	}
	if got := engineQueries(t, s); got != engine {
		t.Fatalf("engine ran %d times for a patched answer", got-engine)
	}

	// The cheapest package of all enters the answer.
	member, err := s.Insert("hotels", []float64{1000, -1}, []order.Value{2})
	if err != nil {
		t.Fatal(err)
	}
	if ids := query(OutcomeExact); !slices.Contains(ids, member) {
		t.Fatalf("answer %v lacks the entering point %d", ids, member)
	}
	if got := engineQueries(t, s); got != engine {
		t.Fatalf("engine ran %d times for a patched answer", got-engine)
	}

	if err := s.Delete("hotels", member); err != nil {
		t.Fatal(err)
	}
	query(OutcomeEngine)
	if st := s.Stats().Cache; st.Invalidations != 0 {
		t.Errorf("writes swept %d entries, want 0", st.Invalidations)
	}
}

// TestCachePutIsMonotone: a Put never replaces an entry that reflects a newer
// store version, so a query that read an older snapshot and finishes late
// cannot park its answer over a fresher one. Equal and newer versions
// replace.
func TestCachePutIsMonotone(t *testing.T) {
	c := NewCache(16, 1)
	c.Put("k", "d", Answer{IDs: []data.PointID{1}, Version: 3})
	c.Put("k", "d", Answer{IDs: []data.PointID{2}, Version: 2})
	if a, _ := c.Probe("k"); a.Version != 3 || !slices.Equal(a.IDs, []data.PointID{1}) {
		t.Fatalf("older Put replaced the entry: %+v", a)
	}
	if st := c.Stats(); st.StalePuts != 1 {
		t.Fatalf("StalePuts = %d, want 1", st.StalePuts)
	}
	c.Put("k", "d", Answer{IDs: []data.PointID{3}, Version: 3})
	if a, _ := c.Probe("k"); !slices.Equal(a.IDs, []data.PointID{3}) {
		t.Fatalf("equal-version Put was refused: %+v", a)
	}
	c.Put("k", "d", Answer{IDs: []data.PointID{4}, Version: 5})
	if a, _ := c.Probe("k"); a.Version != 5 || !slices.Equal(a.IDs, []data.PointID{4}) {
		t.Fatalf("newer Put was refused: %+v", a)
	}
	if st := c.Stats(); st.StalePuts != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 stale put and 1 entry", st)
	}
}

// freshScan is the reference of the cache property test: skyline.SFS over
// the live points of the dataset's current snapshot.
func freshScan(t *testing.T, s *Service, pref *order.Preference) []data.PointID {
	t.Helper()
	e, err := s.reg.entry("d")
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := dominance.NewComparator(e.schema, pref)
	if err != nil {
		t.Fatal(err)
	}
	return skyline.SFS(e.store.Snapshot().Points(), cmp)
}

// TestCachedAnswersMatchFreshScan is the property suite of cache patching: a
// seeded stream of inserts (dominated by, dominating and incomparable to a
// cached answer), deletes (of answer members and of other points),
// compactions, queries and batches over three hot preferences and their
// common coarser ancestor, on every kind whose engine the service patches
// around. Every answer must equal a fresh SFS of the snapshot's live points,
// and across the suite the stream must patch an exact entry, serve a
// refinement from an ancestor cached before a write, and recompute an answer
// whose member was deleted. Subtests are named by kind and seed.
func TestCachedAnswersMatchFreshScan(t *testing.T) {
	var patched, staleAncestor, recomputed int
	for _, kind := range []string{"sfsd", "sfsa", "hybrid", "ipo"} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", kind, seed), func(t *testing.T) {
				p, a, r := cachePatchStream(t, kind, seed)
				patched += p
				staleAncestor += a
				recomputed += r
			})
		}
	}
	t.Logf("patched exact hits %d, stale-ancestor semantic hits %d, member-delete recomputes %d",
		patched, staleAncestor, recomputed)
	if patched == 0 || staleAncestor == 0 || recomputed == 0 {
		t.Fatalf("the stream left a path unexercised: patched %d, stale ancestor %d, recomputed %d",
			patched, staleAncestor, recomputed)
	}
}

// cachePatchStream runs one seeded op stream and returns how often a query
// was a patched exact hit, a semantic hit from an ancestor cached before a
// write, and a miss of an entry whose member had been deleted.
func cachePatchStream(t *testing.T, kind string, seed int64) (patched, staleAncestor, recomputed int) {
	rng := rand.New(rand.NewSource(seed))
	const card = 5
	numeric := []data.NumericAttr{{Name: "n0"}, {Name: "n1"}}
	nominal := make([]*order.Domain, 2)
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
	points := make([]data.Point, 60+rng.Intn(60))
	for i := range points {
		points[i] = randomServicePoint(schema, card, rng)
	}
	ds, err := data.New(schema, points)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{SemanticCandidateLimit: 1 << 20})
	if err := s.AddDataset("d", ds, EngineConfig{Kind: kind, CompactThreshold: -1}); err != nil {
		t.Fatal(err)
	}
	e, err := s.reg.entry("d")
	if err != nil {
		t.Fatal(err)
	}

	// The ancestor ranks value a first on dimension 0; each hot preference
	// refines it with a different second value, so no hot preference refines
	// another and the ancestor is the only cached coarser key.
	perm := rng.Perm(card)
	dim1 := order.MustImplicit(card, order.Value(rng.Intn(card)))
	ancestor := order.MustPreference(order.MustImplicit(card, order.Value(perm[0])), order.MustImplicit(card))
	hot := make([]*order.Preference, 3)
	for i := range hot {
		hot[i] = order.MustPreference(order.MustImplicit(card, order.Value(perm[0]), order.Value(perm[1+i])), dim1)
	}
	pool := append([]*order.Preference{ancestor}, hot...)

	// cachedAt and members track, per preference, the store version its
	// entry was last stored at and the ids it held; deleted marks an entry
	// one of whose members has been deleted since.
	cachedAt := make(map[*order.Preference]uint64)
	members := make(map[*order.Preference][]data.PointID)
	deleted := make(map[*order.Preference]bool)

	answer := func(op int, pref *order.Preference, ids []data.PointID, outcome Outcome, before CacheStats) {
		t.Helper()
		if want := freshScan(t, s, pref); !slices.Equal(ids, want) {
			t.Fatalf("op %d %v: outcome %v answered %v, a fresh scan %v", op, pref, outcome, ids, want)
		}
		after := s.Stats().Cache
		version := e.version()
		at, cached := cachedAt[pref]
		switch {
		case outcome == OutcomeExact && cached && at < version:
			if after.Hits != before.Hits+1 {
				t.Fatalf("op %d: a patched answer counted %d hits", op, after.Hits-before.Hits)
			}
			patched++
		case outcome == OutcomeSemantic && cachedAt[ancestor] < version:
			staleAncestor++
		}
		if cached && deleted[pref] {
			if outcome == OutcomeExact || after.Misses != before.Misses+1 {
				t.Fatalf("op %d: entry with a deleted member served as %v (misses +%d)", op, outcome, after.Misses-before.Misses)
			}
			recomputed++
		}
		cachedAt[pref], members[pref], deleted[pref] = version, ids, false
	}
	// markDeleted records a deletion against every entry holding the id.
	markDeleted := func(id data.PointID) {
		for p, ids := range members {
			if slices.Contains(ids, id) {
				deleted[p] = true
			}
		}
	}
	shift := func(base data.Point, by float64) ([]float64, []order.Value) {
		num := make([]float64, len(base.Num))
		for d, v := range base.Num {
			num[d] = v + by
		}
		return num, slices.Clone(base.Nom)
	}

	for op := 0; op < 150; op++ {
		snap := e.store.Snapshot()
		live := snap.Points()
		target := pool[rng.Intn(len(pool))]
		sky := freshScan(t, s, target)
		switch r := rng.Float64(); {
		case r < 0.45:
			before := s.Stats().Cache
			ids, outcome, err := s.Query(context.Background(), "d", target)
			if err != nil {
				t.Fatalf("op %d query: %v", op, err)
			}
			answer(op, target, ids, outcome, before)
		case r < 0.55:
			batch := []*order.Preference{pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]}
			for i, res := range s.Batch(context.Background(), "d", batch) {
				if res.Err != nil {
					t.Fatalf("op %d batch: %v", op, res.Err)
				}
				if want := freshScan(t, s, batch[i]); !slices.Equal(res.IDs, want) {
					t.Fatalf("op %d batch member %d %v: outcome %v answered %v, a fresh scan %v",
						op, i, batch[i], res.Outcome, res.IDs, want)
				}
			}
			// Batch counters cover several groups at once, so only the
			// entries' versions and members are tracked here.
			for _, p := range batch {
				cachedAt[p], members[p], deleted[p] = e.version(), freshScan(t, s, p), false
			}
		case r < 0.75:
			var num []float64
			var nom []order.Value
			switch rng.Intn(3) {
			case 0: // dominated by a member of the target's answer
				pt, _ := snap.Point(sky[rng.Intn(len(sky))])
				num, nom = shift(pt, 0.25)
			case 1: // dominating a member of the target's answer
				pt, _ := snap.Point(sky[rng.Intn(len(sky))])
				num, nom = shift(pt, -0.25)
			default:
				pt := randomServicePoint(schema, card, rng)
				num, nom = pt.Num, pt.Nom
			}
			if _, err := s.Insert("d", num, nom); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
		case r < 0.92:
			if len(live) <= 10 {
				continue
			}
			id := live[rng.Intn(len(live))].ID
			if rng.Intn(2) == 0 {
				id = sky[rng.Intn(len(sky))]
			}
			if err := s.Delete("d", id); err != nil {
				t.Fatalf("op %d delete %d: %v", op, id, err)
			}
			markDeleted(id)
		default:
			e.store.Compact()
		}
	}
	return patched, staleAncestor, recomputed
}
