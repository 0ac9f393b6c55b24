package flat_test

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/order"
	"prefsky/internal/skyline"
)

// mutatedStore builds a store over a random dataset and applies a random
// insert/delete mix so snapshots carry delta rows and tombstones.
func mutatedStore(t *testing.T, schema *data.Schema, n, card int, rng *rand.Rand) *flat.Store {
	t.Helper()
	st := flat.NewStore(randomDataset(t, schema, n, card, rng), -1)
	for op := 0; op < n/2; op++ {
		if rng.Intn(3) == 0 {
			snap := st.Snapshot()
			if snap.LiveN() == 0 {
				continue
			}
			pts := snap.Points()
			if err := st.Delete(pts[rng.Intn(len(pts))].ID); err != nil {
				t.Fatal(err)
			}
			continue
		}
		num := make([]float64, schema.NumDims())
		for d := range num {
			num[d] = float64(rng.Intn(5)) / 4
		}
		nom := make([]order.Value, schema.NomDims())
		for d := range nom {
			nom[d] = order.Value(rng.Intn(card))
		}
		if _, err := st.Insert(num, nom); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// TestProjectRowsMatchesDenseProjection: a subset projection over random live
// rows agrees with the dense projection on scores, dominance, ids and the
// skyline of that subset (computed two independent ways: subset-projection
// scan vs dense-projection SkylineOf), and both agree with a skyline.SFS
// oracle over the materialized candidate points.
func TestProjectRowsMatchesDenseProjection(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	for trial := 0; trial < 30; trial++ {
		card := 3 + rng.Intn(3)
		schema := randomSchema(t, 1+rng.Intn(2), 1+rng.Intn(2), card)
		st := mutatedStore(t, schema, 40+rng.Intn(60), card, rng)
		snap := st.Snapshot()
		pref := randomPreference(t, schema, rng)
		cmp, err := dominance.NewComparator(schema, pref)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := snap.Project(cmp)
		if err != nil {
			t.Fatal(err)
		}

		// Random live row subset (order shuffled, not sorted).
		var live []int32
		for r := 0; r < snap.Rows(); r++ {
			if _, ok := snap.RowOf(snap.ID(int32(r))); ok && rng.Intn(2) == 0 {
				live = append(live, int32(r))
			}
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })

		sub, err := snap.ProjectRows(cmp, live)
		if err != nil {
			t.Fatal(err)
		}
		if sub.N() != len(live) {
			t.Fatalf("subset projection N = %d, want %d", sub.N(), len(live))
		}
		for i, r := range live {
			if sub.Score(int32(i)) != dense.Score(r) {
				t.Fatalf("trial %d: score mismatch at local %d (global %d)", trial, i, r)
			}
			if sub.ID(int32(i)) != dense.ID(r) {
				t.Fatalf("trial %d: id mismatch at local %d (global %d)", trial, i, r)
			}
		}
		for i := range live {
			for j := range live {
				if sub.Dominates(int32(i), int32(j)) != dense.Dominates(live[i], live[j]) {
					t.Fatalf("trial %d: dominance mismatch (%d,%d)", trial, i, j)
				}
			}
		}

		// Three independent subset skylines must coincide.
		fromSub := sub.IDs(sub.SkylineRange(0, sub.N()))
		ofRows, err := dense.SkylineOf(ctx, live)
		if err != nil {
			t.Fatal(err)
		}
		fromOf := dense.IDs(ofRows)
		var candPts []data.Point
		for _, r := range live {
			p, err := snap.Point(snap.ID(r))
			if err != nil {
				t.Fatal(err)
			}
			candPts = append(candPts, p)
		}
		want := skyline.SFS(candPts, cmp)
		if want == nil {
			want = []data.PointID{}
		}
		if !reflect.DeepEqual(fromSub, want) {
			t.Fatalf("trial %d: subset projection skyline %v, oracle %v", trial, fromSub, want)
		}
		if !reflect.DeepEqual(fromOf, want) {
			t.Fatalf("trial %d: SkylineOf %v, oracle %v", trial, fromOf, want)
		}
	}
}

// TestSkylineOfSkipsTombstones: rows tombstoned in the snapshot are dropped
// from a dense projection's candidate scan rather than resurrected.
func TestSkylineOfSkipsTombstones(t *testing.T) {
	ds := data.Table1()
	st := flat.NewStore(ds, -1)
	pref := ds.Schema().EmptyPreference()
	cmp, err := dominance.NewComparator(ds.Schema(), pref)
	if err != nil {
		t.Fatal(err)
	}
	// Project before deleting: the projection spans the pre-delete snapshot.
	preSnap := st.Snapshot()
	if err := st.Delete(0); err != nil {
		t.Fatal(err)
	}
	post := st.Snapshot()
	proj, err := post.Project(cmp)
	if err != nil {
		t.Fatal(err)
	}
	all := make([]int32, post.Rows())
	for i := range all {
		all[i] = int32(i)
	}
	rows, err := proj.SkylineOf(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if proj.ID(r) == 0 {
			t.Fatal("tombstoned point 0 survived SkylineOf")
		}
	}
	// ProjectRows must refuse tombstoned candidates outright.
	if _, err := post.ProjectRows(cmp, []int32{0}); err == nil {
		t.Error("ProjectRows accepted a tombstoned row")
	}
	if _, err := post.ProjectRows(cmp, []int32{int32(post.Rows())}); err == nil {
		t.Error("ProjectRows accepted an out-of-range row")
	}
	// The pinned pre-delete snapshot still projects row 0 (snapshot isolation).
	if _, err := preSnap.ProjectRows(cmp, []int32{0}); err != nil {
		t.Errorf("pre-delete snapshot rejected live row 0: %v", err)
	}
}

// TestStoreRejectsNonFiniteNumerics: NaN and ±Inf would corrupt the packed
// radix presort, so ingestion must refuse them (regression for the
// NaN-poisoning bug).
func TestStoreRejectsNonFiniteNumerics(t *testing.T) {
	ds := data.Table1()
	st := flat.NewStore(ds, -1)
	nan := math.NaN()
	for _, bad := range [][]float64{{nan, 1}, {1, math.Inf(1)}, {math.Inf(-1), 0}} {
		if _, err := st.Insert(bad, []order.Value{0}); err == nil {
			t.Errorf("Insert(%v) accepted a non-finite numeric", bad)
		}
	}
	if _, err := st.InsertBatch([][]float64{{1, 2}, {nan, 2}}, [][]order.Value{{0}, {0}}); err == nil {
		t.Error("InsertBatch accepted a non-finite numeric")
	}
	if st.Version() != 0 {
		t.Errorf("rejected inserts bumped the version to %d", st.Version())
	}
}
