package flat_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/gen"
	"prefsky/internal/order"
	"prefsky/internal/skyline"
)

// TestGridMatchesDense is the grid equivalence property: on random schemas ×
// mutated stores (delta rows + tombstones) × preferences, the grid-pruned
// scan returns exactly the dense scan's skyline, which in turn equals the
// skyline.SFS oracle over the materialized live points. Subset scans
// (SkylineOf) are checked under both modes too — the grid must stay sound
// when the scanned rows are a strict subset of the rows it summarized.
func TestGridMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ctx := context.Background()
	for trial := 0; trial < 25; trial++ {
		card := 3 + rng.Intn(3)
		schema := randomSchema(t, 1+rng.Intn(2), 1+rng.Intn(2), card)
		st := mutatedStore(t, schema, 60+rng.Intn(80), card, rng)
		snap := st.Snapshot()
		for q := 0; q < 4; q++ {
			pref := randomPreference(t, schema, rng)
			cmp, err := dominance.NewComparator(schema, pref)
			if err != nil {
				t.Fatal(err)
			}
			want := skyline.Naive(snap.Points(), cmp)
			skylineUnder := func(mode flat.GridMode) []int32 {
				proj, err := snap.Project(cmp)
				if err != nil {
					t.Fatal(err)
				}
				proj.SetGridMode(mode)
				rows := proj.SkylineRange(0, proj.N())
				if got := proj.IDs(rows); !reflect.DeepEqual(got, want) {
					t.Fatalf("trial %d pref %v mode %v: %v, want %v", trial, pref, mode, got, want)
				}
				return rows
			}
			skylineUnder(flat.GridOff)
			skylineUnder(flat.GridOn)

			// Subset scan: the cached grid summarizes all rows, the scan sees
			// only some — pruning must stay sound.
			var sub []int32
			for r := 0; r < snap.Rows(); r++ {
				if rng.Intn(2) == 0 {
					sub = append(sub, int32(r))
				}
			}
			subUnder := func(mode flat.GridMode) []int32 {
				proj, err := snap.Project(cmp)
				if err != nil {
					t.Fatal(err)
				}
				proj.SetGridMode(mode)
				rows, err := proj.SkylineOf(ctx, sub)
				if err != nil {
					t.Fatal(err)
				}
				return rows
			}
			dense, grid := subUnder(flat.GridOff), subUnder(flat.GridOn)
			if !reflect.DeepEqual(dense, grid) {
				t.Fatalf("trial %d pref %v: subset scan diverged: grid %v, dense %v", trial, pref, grid, dense)
			}
		}
	}
}

// TestGridMatchesDenseOnGenerated runs the same equivalence over the
// generator's correlation kinds at a size that crosses the radix-presort and
// GridAuto thresholds, so the cached-permutation and auto-gated grid paths
// are the ones being exercised.
func TestGridMatchesDenseOnGenerated(t *testing.T) {
	for _, kind := range []gen.Kind{gen.Independent, gen.Correlated, gen.AntiCorrelated} {
		t.Run(kind.String(), func(t *testing.T) {
			ds, err := gen.Dataset(gen.Config{
				N: 6000, NumDims: 2, NomDims: 2, Cardinality: 6,
				Theta: 1, Kind: kind, Seed: int64(37 + kind),
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(kind)))
			blk := flat.NewBlock(ds)
			for q := 0; q < 3; q++ {
				pref := randomPreference(t, ds.Schema(), rng)
				cmp, err := dominance.NewComparator(ds.Schema(), pref)
				if err != nil {
					t.Fatal(err)
				}
				results := map[flat.GridMode][]int32{}
				for _, mode := range []flat.GridMode{flat.GridOff, flat.GridAuto, flat.GridOn} {
					proj, err := blk.Project(cmp)
					if err != nil {
						t.Fatal(err)
					}
					proj.SetGridMode(mode)
					results[mode] = proj.SkylineRange(0, proj.N())
				}
				if !reflect.DeepEqual(results[flat.GridOff], results[flat.GridOn]) ||
					!reflect.DeepEqual(results[flat.GridOff], results[flat.GridAuto]) {
					t.Fatalf("pref %v: modes disagree: off %d, auto %d, on %d ids",
						pref, len(results[flat.GridOff]), len(results[flat.GridAuto]), len(results[flat.GridOn]))
				}
			}
		})
	}
}

// TestSkylineBatchMatchesLoop is the batch equivalence property: on mutated
// stores, SkylineBatch answers every member — duplicates and wildly divergent
// preferences included — exactly as the per-preference Project + SkylineRange
// loop does, which the naive oracle confirms.
func TestSkylineBatchMatchesLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	ctx := context.Background()
	for trial := 0; trial < 20; trial++ {
		card := 3 + rng.Intn(3)
		schema := randomSchema(t, 1+rng.Intn(2), 1+rng.Intn(2), card)
		st := mutatedStore(t, schema, 50+rng.Intn(70), card, rng)
		snap := st.Snapshot()
		b := 2 + rng.Intn(6)
		prefs := make([]*order.Preference, b)
		for k := range prefs {
			prefs[k] = randomPreference(t, schema, rng)
		}
		// Force at least one duplicate pair once there is room for it.
		if b >= 3 {
			prefs[b-1] = prefs[0]
		}
		got, err := snap.SkylineBatch(ctx, prefs, flat.GridAuto)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != b {
			t.Fatalf("trial %d: %d results for %d preferences", trial, len(got), b)
		}
		for k, pref := range prefs {
			cmp, err := dominance.NewComparator(schema, pref)
			if err != nil {
				t.Fatal(err)
			}
			proj, err := snap.Project(cmp)
			if err != nil {
				t.Fatal(err)
			}
			want := proj.IDs(proj.SkylineRange(0, proj.N()))
			if !reflect.DeepEqual(got[k], want) {
				t.Fatalf("trial %d member %d (pref %v): batch %v, loop %v", trial, k, pref, got[k], want)
			}
			if oracle := skyline.Naive(snap.Points(), cmp); !reflect.DeepEqual(want, oracle) {
				t.Fatalf("trial %d member %d: loop %v, oracle %v", trial, k, want, oracle)
			}
		}
	}
}

// TestSkylineBatchEdges pins the batch kernel's edge behavior: an empty batch
// is a nil no-op, a nil member fails the whole call (the service layer
// rejects nil members before reaching the kernel), and a canceled context
// aborts the shared scan.
func TestSkylineBatchEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	schema := randomSchema(t, 1, 1, 3)
	st := mutatedStore(t, schema, 40, 3, rng)
	snap := st.Snapshot()

	if out, err := snap.SkylineBatch(context.Background(), nil, flat.GridAuto); err != nil || out != nil {
		t.Fatalf("empty batch = %v, %v; want nil, nil", out, err)
	}
	pref := randomPreference(t, schema, rng)
	if _, err := snap.SkylineBatch(context.Background(), []*order.Preference{pref, nil}, flat.GridAuto); err == nil {
		t.Fatal("nil member succeeded, want error")
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := snap.SkylineBatch(canceled, []*order.Preference{pref}, flat.GridAuto); err == nil {
		t.Fatal("canceled context succeeded, want error")
	}
}

// TestGridStatsAdvance: a forced grid scan over a block with spread
// increments the process-wide counters the service surfaces.
func TestGridStatsAdvance(t *testing.T) {
	ds, err := gen.Dataset(gen.Config{
		N: 5000, NumDims: 2, NomDims: 1, Cardinality: 5, Theta: 1,
		Kind: gen.Independent, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	pref := ds.Schema().EmptyPreference()
	cmp, err := dominance.NewComparator(ds.Schema(), pref)
	if err != nil {
		t.Fatal(err)
	}
	before := flat.ReadGridStats()
	proj, err := flat.NewBlock(ds).Project(cmp)
	if err != nil {
		t.Fatal(err)
	}
	proj.SetGridMode(flat.GridOn)
	proj.SkylineRange(0, proj.N())
	after := flat.ReadGridStats()
	if after.Scans <= before.Scans {
		t.Errorf("Scans did not advance: %d -> %d", before.Scans, after.Scans)
	}
}

// TestGridStatsPerStore: scans over a store's snapshots land in that store's
// own counters, not the process-wide default — the attribution /v1/stats
// reports per dataset and coordinators aggregate without double counting.
func TestGridStatsPerStore(t *testing.T) {
	ds, err := gen.Dataset(gen.Config{
		N: 5000, NumDims: 2, NomDims: 1, Cardinality: 5, Theta: 1,
		Kind: gen.Independent, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := dominance.NewComparator(ds.Schema(), ds.Schema().EmptyPreference())
	if err != nil {
		t.Fatal(err)
	}
	store := flat.NewStore(ds, -1)
	defaultBefore := flat.ReadGridStats()
	storeBefore := store.GridStats()
	proj, err := store.Snapshot().Project(cmp)
	if err != nil {
		t.Fatal(err)
	}
	proj.SetGridMode(flat.GridOn)
	proj.SkylineRange(0, proj.N())
	if got := store.GridStats(); got.Scans <= storeBefore.Scans {
		t.Errorf("store Scans did not advance: %d -> %d", storeBefore.Scans, got.Scans)
	}
	if got := flat.ReadGridStats(); got.Scans != defaultBefore.Scans {
		t.Errorf("store-backed scan leaked into default counters: %d -> %d",
			defaultBefore.Scans, got.Scans)
	}
}

// TestParseGridMode pins the grid-mode name table.
func TestParseGridMode(t *testing.T) {
	for s, want := range map[string]flat.GridMode{
		"": flat.GridAuto, "auto": flat.GridAuto,
		"on": flat.GridOn, "true": flat.GridOn,
		"off": flat.GridOff, "false": flat.GridOff,
	} {
		got, err := flat.ParseGridMode(s)
		if err != nil || got != want {
			t.Errorf("flat.ParseGridMode(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := flat.ParseGridMode("sometimes"); err == nil {
		t.Error("flat.ParseGridMode(sometimes) succeeded, want error")
	}
	for m, want := range map[flat.GridMode]string{
		flat.GridAuto: "auto", flat.GridOn: "on", flat.GridOff: "off",
	} {
		if m.String() != want {
			t.Errorf("GridMode(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

// TestGridDemoSmoke is the CI smoke check: on the flights demo dataset the
// grid-pruned scan (forced on) must return exactly the dense scan's skyline
// for every preference tried. CI runs this test by name so a grid soundness
// regression is named in the summary, not buried in the package matrix.
func TestGridDemoSmoke(t *testing.T) {
	ds, err := gen.Flights(3000, 7)
	if err != nil {
		t.Fatal(err)
	}
	blk := flat.NewBlock(ds)
	rng := rand.New(rand.NewSource(7))
	prefs := []*order.Preference{ds.Schema().EmptyPreference()}
	for q := 0; q < 8; q++ {
		prefs = append(prefs, randomPreference(t, ds.Schema(), rng))
	}
	for i, pref := range prefs {
		cmp, err := dominance.NewComparator(ds.Schema(), pref)
		if err != nil {
			t.Fatal(err)
		}
		scan := func(mode flat.GridMode) []int32 {
			proj, err := blk.Project(cmp)
			if err != nil {
				t.Fatal(err)
			}
			proj.SetGridMode(mode)
			return proj.SkylineRange(0, proj.N())
		}
		dense, grid := scan(flat.GridOff), scan(flat.GridOn)
		if !reflect.DeepEqual(dense, grid) {
			t.Fatalf("pref %d (%v): grid skyline has %d rows, dense %d — grid pruning is unsound on the demo dataset",
				i, pref, len(grid), len(dense))
		}
	}
}

// FuzzGridBatch drives the three-way equivalence from fuzzed shape + seed:
// whatever dataset, preferences and mutation history fall out, the dense
// scan, the grid-pruned scan and the batch kernel agree on every member.
func FuzzGridBatch(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(1), uint8(2), uint8(3), uint8(3))
	f.Add(int64(2), uint8(80), uint8(2), uint8(1), uint8(4), uint8(5))
	f.Add(int64(3), uint8(10), uint8(0), uint8(2), uint8(2), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, n, numDims, nomDims, card, b uint8) {
		m := int(numDims % 3)
		l := int(nomDims%3) + 1 // batch needs at least one nominal dim to differ on
		k := int(card%5) + 2
		rng := rand.New(rand.NewSource(seed))
		schema := randomSchema(t, m, l, k)
		st := mutatedStore(t, schema, int(n%96)+4, k, rng)
		snap := st.Snapshot()
		prefs := make([]*order.Preference, int(b%6)+1)
		for i := range prefs {
			prefs[i] = randomPreference(t, schema, rng)
		}
		batch, err := snap.SkylineBatch(context.Background(), prefs, flat.GridAuto)
		if err != nil {
			t.Fatal(err)
		}
		for i, pref := range prefs {
			cmp, err := dominance.NewComparator(schema, pref)
			if err != nil {
				t.Fatal(err)
			}
			for _, mode := range []flat.GridMode{flat.GridOff, flat.GridOn} {
				proj, err := snap.Project(cmp)
				if err != nil {
					t.Fatal(err)
				}
				proj.SetGridMode(mode)
				got := proj.IDs(proj.SkylineRange(0, proj.N()))
				if !reflect.DeepEqual(got, batch[i]) {
					t.Fatalf("member %d mode %v: scan %v, batch %v (pref %v)", i, mode, got, batch[i], pref)
				}
			}
		}
	})
}
