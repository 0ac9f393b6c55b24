package flat_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/order"
	"prefsky/internal/skyline"
)

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

// FuzzGridBatch drives the batch equivalence from fuzzed shape + seed:
// whatever dataset, preferences and mutation history fall out, the dense
// scan and the batch kernel agree on every member.
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
			proj, err := snap.Project(cmp)
			if err != nil {
				t.Fatal(err)
			}
			got := proj.IDs(proj.SkylineRange(0, proj.N()))
			if !reflect.DeepEqual(got, batch[i]) {
				t.Fatalf("member %d: scan %v, batch %v (pref %v)", i, got, batch[i], pref)
			}
		}
	})
}
