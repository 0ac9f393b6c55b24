package core

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/gen"
	"prefsky/internal/ipotree"
	"prefsky/internal/order"
	"prefsky/internal/skyline"
)

// routing returns a tree-backed engine's (tree hits, fallbacks) counters.
func routing(t testing.TB, e Engine) (hits, fallbacks int64) {
	t.Helper()
	te, ok := e.(*treeEngine)
	if !ok {
		t.Fatalf("%s is not tree-backed", e.Name())
	}
	return te.treeHits.Load(), te.fallbacks.Load()
}

// liveSFS is the oracle: sequential SFS over the store's live points.
func liveSFS(e Engine, pref *order.Preference) []data.PointID {
	snap := StoreOf(e).Snapshot()
	return skyline.SFS(snap.Points(), dominance.MustComparator(snap.Schema(), pref))
}

// TestTreeCombinator pins the one acceptance rule of the tree-backed kinds
// over every tree state: ipo is strict (an unmaterialized value is an error
// whether the tree is fresh, stale or rebuilt), the hybrids are lenient (it
// falls back), and a non-refinement is rejected with the tree's sentinel by
// every kind in every state. ValidatePreference must agree with Skyline in
// each cell, and a fallback is taken only when the tree cannot answer.
func TestTreeCombinator(t *testing.T) {
	ctx := context.Background()
	schema := data.Table1().Schema()
	parse := func(spec string) *order.Preference {
		p, err := data.ParsePreference(schema, spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	tmpl := parse("Hotel-group: T<*")
	prefs := []struct {
		name string
		pref *order.Preference
	}{
		{"materialized", parse("Hotel-group: T<M<*")},
		{"unmaterialized", parse("Hotel-group: T<H<*")},
		{"non-refinement", parse("Hotel-group: M<*")},
	}
	// Materialize only {T, M}: a preference naming H is unmaterialized.
	opts := Options{Tree: ipotree.Options{Values: [][]order.Value{{0, 2}}}, Partitions: 2}
	states := []struct {
		name  string
		fresh bool
		apply func(e Engine)
	}{
		{"fresh", true, func(Engine) {}},
		{"stale", false, func(e Engine) {
			if _, err := Maintainable(e).Insert([]float64{2000, -3}, []order.Value{2}); err != nil {
				t.Fatal(err)
			}
		}},
		{"rebuilt", true, func(e Engine) {
			if _, err := Maintainable(e).Insert([]float64{2000, -3}, []order.Value{2}); err != nil {
				t.Fatal(err)
			}
			StoreOf(e).Compact()
		}},
	}
	for _, kind := range []string{"ipo", "hybrid", "parallel-hybrid"} {
		for _, st := range states {
			e, err := NewFromStore(kind, flat.NewStore(data.Table1(), -1), tmpl, opts)
			if err != nil {
				t.Fatal(err)
			}
			st.apply(e)
			for _, p := range prefs {
				t.Run(kind+"/"+st.name+"/"+p.name, func(t *testing.T) {
					var wantErr error
					switch {
					case p.name == "non-refinement":
						wantErr = ipotree.ErrNotRefinement
					case p.name == "unmaterialized" && kind == "ipo":
						wantErr = ipotree.ErrNotMaterialized
					}
					hits, falls := routing(t, e)
					got, err := e.Skyline(ctx, p.pref)
					verr := ValidatorOf(e).ValidatePreference(p.pref)
					if wantErr != nil {
						if !errors.Is(err, wantErr) {
							t.Errorf("Skyline error = %v, want %v", err, wantErr)
						}
						if !errors.Is(verr, wantErr) {
							t.Errorf("ValidatePreference = %v, want %v", verr, wantErr)
						}
						return
					}
					if err != nil || verr != nil {
						t.Fatalf("Skyline error %v, ValidatePreference %v; want both nil", err, verr)
					}
					if want := liveSFS(e, p.pref); !reflect.DeepEqual(got, want) {
						t.Errorf("Skyline = %v, SFS over live points %v", got, want)
					}
					h, f := routing(t, e)
					wantHit := st.fresh && p.name == "materialized"
					if wantHit && (h != hits+1 || f != falls) || !wantHit && (h != hits || f != falls+1) {
						t.Errorf("routing moved (%d,%d) → (%d,%d), want a tree hit: %v", hits, falls, h, f, wantHit)
					}
					if kind == "ipo" && st.name == "stale" && p.name == "materialized" {
						staleIPOAllocs(t, e, p.pref)
					}
				})
			}
		}
	}
}

// staleIPOAllocs: a stale bare ipo learns whether it accepts a preference by
// walking the tree (Tree.Materialized), not by evaluating the stale tree's
// whole query and discarding the result — so its Skyline allocates no more
// than an SFS-D engine over the same store plus the walk.
func staleIPOAllocs(t *testing.T, ipo Engine, pref *order.Preference) {
	t.Helper()
	ctx := context.Background()
	sfsd, err := NewFromStore("sfsd", StoreOf(ipo), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tree := ipo.(*treeEngine).vt.Load().Tree()
	query := func(e Engine) func() {
		return func() {
			if _, err := e.Skyline(ctx, pref); err != nil {
				t.Fatal(err)
			}
		}
	}
	scanAllocs := testing.AllocsPerRun(50, query(sfsd))
	walkAllocs := testing.AllocsPerRun(50, func() {
		if err := tree.Materialized(pref); err != nil {
			t.Fatal(err)
		}
	})
	if got := testing.AllocsPerRun(50, query(ipo)); got > scanAllocs+walkAllocs {
		t.Errorf("stale ipo Skyline allocates %.0f, want <= %.0f (sfsd) + %.0f (Materialized)",
			got, scanAllocs, walkAllocs)
	}
}

func TestRoutingAndCorrectness(t *testing.T) {
	ds := gen.MustDataset(gen.Config{
		N: 400, NumDims: 2, NomDims: 1, Cardinality: 8, Theta: 1,
		Kind: gen.Independent, Seed: 5,
	})
	tmpl := ds.Schema().EmptyPreference()
	e, err := NewHybrid(ds, tmpl, ipotree.Options{TopK: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Popular query (values 0..2 are materialized).
	popular := order.MustPreference(order.MustImplicit(8, 0, 1))
	// Unpopular query (value 7 is outside top-3 of a Zipf sample).
	unpopular := order.MustPreference(order.MustImplicit(8, 7))
	for _, pref := range []*order.Preference{popular, unpopular} {
		got, err := e.Skyline(context.Background(), pref)
		if err != nil {
			t.Fatalf("Skyline(%v): %v", pref, err)
		}
		cmp := dominance.MustComparator(ds.Schema(), pref)
		want := skyline.SFS(ds.Points(), cmp)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Skyline(%v) = %v, want %v", pref, got, want)
		}
	}
	if hits, falls := routing(t, e); hits != 1 || falls != 1 {
		t.Errorf("routing = %d hits, %d fallbacks; want 1 and 1", hits, falls)
	}
}

func TestNonRefinementStillFails(t *testing.T) {
	ds := data.Table1()
	tmpl, _ := data.ParsePreference(ds.Schema(), "Hotel-group: T<*")
	e, err := NewHybrid(ds, tmpl, ipotree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	conflicting, _ := data.ParsePreference(ds.Schema(), "Hotel-group: M<*")
	if _, err := e.Skyline(context.Background(), conflicting); err == nil {
		t.Error("conflicting query did not error")
	}
}

func TestAccessorsAndSize(t *testing.T) {
	ds := data.Table1()
	e, err := NewHybrid(ds, ds.Schema().EmptyPreference(), ipotree.Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	te := e.(*treeEngine)
	tree := te.vt.Load().Tree()
	if tree == nil || te.sfsa == nil {
		t.Fatal("hybrid has no tree or no SFS-A fallback")
	}
	if Maintainable(e) != te.sfsa {
		t.Error("hybrid maintenance does not go through SFS-A")
	}
	if e.SizeBytes() <= tree.SizeBytes() {
		t.Error("combined size should exceed tree size")
	}
}

func TestRandomizedAgainstSFSD(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	ds := gen.MustDataset(gen.Config{
		N: 300, NumDims: 2, NomDims: 2, Cardinality: 6, Theta: 1,
		Kind: gen.AntiCorrelated, Seed: 9,
	})
	tmpl, err := gen.FrequentTemplate(ds)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewHybrid(ds, tmpl, ipotree.Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	qs, err := gen.Queries(ds.Schema().Cardinalities(), tmpl, gen.QueryConfig{
		Order: 3, Count: 30, Mode: gen.Uniform, Seed: rng.Int63(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, pref := range qs {
		got, err := e.Skyline(context.Background(), pref)
		if err != nil {
			t.Fatalf("Skyline(%v): %v", pref, err)
		}
		cmp := dominance.MustComparator(ds.Schema(), pref)
		want := skyline.SFS(ds.Points(), cmp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Skyline(%v) = %v, want %v", pref, got, want)
		}
	}
	hits, falls := routing(t, e)
	if hits+falls != 30 {
		t.Errorf("routing %d hits + %d fallbacks do not sum to 30", hits, falls)
	}
	if falls == 0 {
		t.Error("expected some fallbacks with TopK=2 and uniform queries")
	}
}

// TestHybridRoutesAndMatches: on parallel-hybrid, materialized queries hit
// the tree, queries naming unmaterialized values fall back to the
// partitioned scan, and both paths agree with sequential SFS.
func TestHybridRoutesAndMatches(t *testing.T) {
	ds, err := gen.Dataset(gen.Config{
		N: 400, NumDims: 2, NomDims: 2, Cardinality: 8,
		Theta: 1, Kind: gen.AntiCorrelated, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := ds.Schema().EmptyPreference()
	h, err := NewParallelHybrid(ds, tmpl, ipotree.Options{TopK: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform queries mostly name unmaterialized values (fallback); TopK-mode
	// queries only name materialized ones (tree hits).
	queries, err := gen.Queries(ds.Schema().Cardinalities(), tmpl, gen.QueryConfig{
		Order: 2, Count: 8, Mode: gen.Uniform, Seed: 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	hot, err := gen.Queries(ds.Schema().Cardinalities(), tmpl, gen.QueryConfig{
		Order: 1, Count: 8, Mode: gen.TopK, K: 2, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	queries = append(queries, hot...)
	for _, q := range queries {
		cmp, err := dominance.NewComparator(ds.Schema(), q)
		if err != nil {
			t.Fatal(err)
		}
		want := skyline.SFS(ds.Points(), cmp)
		got, err := h.Skyline(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("hybrid diverged from SFS: got %v, want %v", got, want)
		}
	}
	if hits, falls := routing(t, h); hits == 0 || falls == 0 {
		t.Errorf("expected both routes exercised, got %d hits, %d fallbacks", hits, falls)
	}
	if h.SizeBytes() <= 0 {
		t.Errorf("hybrid SizeBytes = %d, want > 0", h.SizeBytes())
	}
	if h.(*treeEngine).vt.Load().Tree() == nil {
		t.Error("no tree")
	}
}
