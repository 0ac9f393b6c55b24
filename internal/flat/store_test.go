package flat_test

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/flat"
	"prefsky/internal/order"
	"prefsky/internal/skyline"
)

// storeSkyline computes the snapshot's skyline through the flat kernel.
func storeSkyline(t testing.TB, snap *flat.Snapshot, pref *order.Preference) []data.PointID {
	t.Helper()
	cmp, err := dominance.NewComparator(snap.Schema(), pref)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := snap.Project(cmp)
	if err != nil {
		t.Fatal(err)
	}
	return pr.Skyline()
}

// oracleSkyline rebuilds an SFS-D oracle from scratch over the snapshot's
// live points with skyline.SFS.
func oracleSkyline(t testing.TB, snap *flat.Snapshot, pref *order.Preference) []data.PointID {
	t.Helper()
	cmp, err := dominance.NewComparator(snap.Schema(), pref)
	if err != nil {
		t.Fatal(err)
	}
	return skyline.SFS(snap.Points(), cmp)
}

func TestStoreBasics(t *testing.T) {
	ds := data.Table1()
	st := flat.NewStore(ds, -1)
	if st.Version() != 0 {
		t.Fatalf("fresh store version = %d", st.Version())
	}
	snap0 := st.Snapshot()
	if snap0.LiveN() != ds.N() || snap0.DeltaRows() != 0 || snap0.Tombstones() != 0 {
		t.Fatalf("fresh snapshot shape: live %d delta %d dead %d", snap0.LiveN(), snap0.DeltaRows(), snap0.Tombstones())
	}

	id, err := st.Insert([]float64{1, -3}, []order.Value{0})
	if err != nil {
		t.Fatal(err)
	}
	if id != data.PointID(ds.N()) {
		t.Errorf("first insert id = %d, want %d", id, ds.N())
	}
	if st.Version() != 1 {
		t.Errorf("version after insert = %d", st.Version())
	}
	// The earlier snapshot is unchanged (snapshot isolation).
	if snap0.LiveN() != ds.N() {
		t.Errorf("old snapshot saw the insert")
	}
	snap1 := st.Snapshot()
	if snap1.LiveN() != ds.N()+1 || snap1.DeltaRows() != 1 {
		t.Errorf("snapshot after insert: live %d delta %d", snap1.LiveN(), snap1.DeltaRows())
	}
	p, err := snap1.Point(id)
	if err != nil {
		t.Fatal(err)
	}
	if p.ID != id || p.Num[0] != 1 || p.Nom[0] != 0 {
		t.Errorf("Point(%d) = %+v", id, p)
	}

	if err := st.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(id); !errors.Is(err, flat.ErrUnknownPoint) {
		t.Errorf("double delete: %v, want ErrUnknownPoint", err)
	}
	if err := st.Delete(9999); !errors.Is(err, flat.ErrUnknownPoint) {
		t.Errorf("unknown delete: %v, want ErrUnknownPoint", err)
	}
	snap2 := st.Snapshot()
	if _, err := snap2.Point(id); !errors.Is(err, flat.ErrUnknownPoint) {
		t.Errorf("Point(deleted) = %v, want ErrUnknownPoint", err)
	}
	if snap1.Tombstones() != 0 {
		t.Error("older snapshot saw the tombstone")
	}
	if snap2.LiveN() != ds.N() || snap2.Tombstones() != 1 {
		t.Errorf("snapshot after delete: live %d dead %d", snap2.LiveN(), snap2.Tombstones())
	}

	// Validation errors surface before any mutation.
	if _, err := st.Insert([]float64{1}, []order.Value{0}); err == nil {
		t.Error("wrong numeric dims accepted")
	}
	if _, err := st.Insert([]float64{1, 2}, []order.Value{99}); err == nil {
		t.Error("out-of-domain nominal accepted")
	}

	stats := st.Stats()
	if stats.Inserts != 1 || stats.Deletes != 1 || stats.Version != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

// TestStoreMatchesOracle: after random mutation sequences, the snapshot
// skyline equals an SFS-D oracle rebuilt from scratch, for random preferences
// including the empty (all values unlisted) one.
func TestStoreMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		schema := randomSchema(t, 2, 2, 4)
		ds := randomDataset(t, schema, 30, 4, rng)
		st := flat.NewStore(ds, -1)
		var live []data.PointID
		for _, p := range ds.Points() {
			live = append(live, p.ID)
		}
		for op := 0; op < 40; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if err := st.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			} else {
				num := []float64{float64(rng.Intn(5)) / 4, float64(rng.Intn(5)) / 4}
				nom := []order.Value{order.Value(rng.Intn(4)), order.Value(rng.Intn(4))}
				id, err := st.Insert(num, nom)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
		}
		snap := st.Snapshot()
		if snap.LiveN() != len(live) {
			t.Fatalf("trial %d: LiveN = %d, want %d", trial, snap.LiveN(), len(live))
		}
		prefs := []*order.Preference{schema.EmptyPreference()}
		for i := 0; i < 4; i++ {
			prefs = append(prefs, randomPreference(t, schema, rng))
		}
		for _, pref := range prefs {
			got := storeSkyline(t, snap, pref)
			want := oracleSkyline(t, snap, pref)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d pref %v: snapshot skyline %v, oracle %v", trial, pref, got, want)
			}
		}
	}
}

// idsAscend fails unless the snapshot's ids strictly ascend by row, through
// the base and on into the delta: RowOf's per-segment binary searches and the
// monotone id remap of a tree rebuild rely on it.
func idsAscend(t *testing.T, trial int, which string, s *flat.Snapshot) {
	t.Helper()
	for row := int32(1); int(row) < s.Rows(); row++ {
		if s.ID(row-1) >= s.ID(row) {
			t.Fatalf("trial %d %s: id %d at row %d follows id %d", trial, which, s.ID(row), row, s.ID(row-1))
		}
	}
}

// TestCompactionEquivalence: a compacted snapshot is query-equivalent to its
// base+delta+tombstones form — same live points, same skylines (including
// under all-unlisted preferences), same version — and delete-then-reinsert
// of equal-valued points survives the round trip.
func TestCompactionEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		schema := randomSchema(t, 2, 2, 4)
		ds := randomDataset(t, schema, 25, 4, rng)
		st := flat.NewStore(ds, -1)
		var live []data.PointID
		for _, p := range ds.Points() {
			live = append(live, p.ID)
		}
		for op := 0; op < 30; op++ {
			switch {
			case len(live) > 0 && rng.Intn(4) == 0:
				// Delete-then-reinsert an identical point: the reinserted
				// copy gets a fresh id and must survive compaction.
				i := rng.Intn(len(live))
				p, err := st.Snapshot().Point(live[i])
				if err != nil {
					t.Fatal(err)
				}
				num := append([]float64(nil), p.Num...)
				nom := append([]order.Value(nil), p.Nom...)
				if err := st.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
				id, err := st.Insert(num, nom)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			case len(live) > 0 && rng.Intn(3) == 0:
				i := rng.Intn(len(live))
				if err := st.Delete(live[i]); err != nil {
					t.Fatal(err)
				}
				live = append(live[:i], live[i+1:]...)
			default:
				num := []float64{float64(rng.Intn(5)) / 4, float64(rng.Intn(5)) / 4}
				nom := []order.Value{order.Value(rng.Intn(4)), order.Value(rng.Intn(4))}
				id, err := st.Insert(num, nom)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, id)
			}
		}

		before := st.Snapshot()
		prefs := []*order.Preference{schema.EmptyPreference()}
		for i := 0; i < 4; i++ {
			prefs = append(prefs, randomPreference(t, schema, rng))
		}
		if before.DeltaRows() == 0 {
			t.Fatalf("trial %d: no delta rows before compaction", trial)
		}
		idsAscend(t, trial, "before", before)
		wantPoints := before.Points()
		wantSky := make([][]data.PointID, len(prefs))
		for i, pref := range prefs {
			wantSky[i] = storeSkyline(t, before, pref)
		}

		st.Compact()
		after := st.Snapshot()
		if after.Version() != before.Version() {
			t.Fatalf("trial %d: compaction changed version %d → %d", trial, before.Version(), after.Version())
		}
		idsAscend(t, trial, "after", after)
		if after.DeltaRows() != 0 || after.Tombstones() != 0 {
			t.Fatalf("trial %d: compacted shape delta %d dead %d", trial, after.DeltaRows(), after.Tombstones())
		}
		if got := after.Points(); !reflect.DeepEqual(pointKeys(got), pointKeys(wantPoints)) {
			t.Fatalf("trial %d: compaction changed live points", trial)
		}
		for i, pref := range prefs {
			if got := storeSkyline(t, after, pref); !reflect.DeepEqual(got, wantSky[i]) {
				t.Fatalf("trial %d pref %v: compacted skyline %v, want %v", trial, pref, got, wantSky[i])
			}
		}
		// The old snapshot still answers identically (readers that pinned it
		// mid-compaction are unaffected).
		for i, pref := range prefs {
			if got := storeSkyline(t, before, pref); !reflect.DeepEqual(got, wantSky[i]) {
				t.Fatalf("trial %d: pinned snapshot diverged after compaction", trial)
			}
		}
	}
}

// pointKeys renders points as comparable tuples (id + coordinates).
func pointKeys(pts []data.Point) []data.Point {
	out := make([]data.Point, len(pts))
	for i, p := range pts {
		out[i] = p.Clone()
	}
	return out
}

// TestAutoCompaction: crossing the threshold triggers a background
// compaction that eventually resets the delta and tombstones.
func TestAutoCompaction(t *testing.T) {
	ds := data.Table1()
	st := flat.NewStore(ds, 4)
	for i := 0; i < 4; i++ {
		if _, err := st.Insert([]float64{float64(i), float64(-i)}, []order.Value{0}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st.Stats().Compactions > 0 && st.Snapshot().DeltaRows() == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stats := st.Stats()
	if stats.Compactions == 0 {
		t.Fatal("background compaction never ran")
	}
	snap := st.Snapshot()
	if snap.LiveN() != ds.N()+4 || snap.Version() != 4 {
		t.Errorf("post-compaction snapshot: live %d version %d", snap.LiveN(), snap.Version())
	}
}

// TestStoreHammer drives Insert/Delete/Query/compaction concurrently under
// -race. Checker goroutines pin a snapshot, rebuild an SFS-D oracle from
// scratch over its live points and compare — exact equality even while
// mutations and compactions keep landing, which is the snapshot-isolation
// guarantee.
func TestStoreHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("store hammer")
	}
	rng := rand.New(rand.NewSource(3))
	schema := randomSchema(t, 2, 2, 5)
	ds := randomDataset(t, schema, 200, 5, rng)
	st := flat.NewStore(ds, 64) // low threshold: compactions fire mid-hammer

	prefs := []*order.Preference{schema.EmptyPreference()}
	for i := 0; i < 5; i++ {
		prefs = append(prefs, randomPreference(t, schema, rng))
	}

	const (
		mutators = 2
		checkers = 4
		iters    = 150
	)
	var wg sync.WaitGroup
	errCh := make(chan error, mutators+checkers)

	for g := 0; g < mutators; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []data.PointID
			for i := 0; i < iters; i++ {
				if len(mine) > 0 && rng.Intn(2) == 0 {
					id := mine[len(mine)-1]
					mine = mine[:len(mine)-1]
					if err := st.Delete(id); err != nil {
						errCh <- err
						return
					}
					continue
				}
				num := []float64{rng.Float64(), rng.Float64()}
				nom := []order.Value{order.Value(rng.Intn(5)), order.Value(rng.Intn(5))}
				id, err := st.Insert(num, nom)
				if err != nil {
					errCh <- err
					return
				}
				mine = append(mine, id)
			}
		}(int64(g))
	}

	for g := 0; g < checkers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < iters/10; i++ {
				snap := st.Snapshot()
				pref := prefs[rng.Intn(len(prefs))]
				got := storeSkyline(t, snap, pref)
				want := oracleSkyline(t, snap, pref)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("snapshot skyline diverged from rebuilt oracle (version %d)", snap.Version())
					return
				}
			}
		}(int64(g))
	}

	// One goroutine forces extra compactions while everything else runs.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			st.Compact()
			time.Sleep(time.Millisecond)
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Final consistency: one last oracle rebuild.
	snap := st.Snapshot()
	for _, pref := range prefs {
		got := storeSkyline(t, snap, pref)
		want := oracleSkyline(t, snap, pref)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("final snapshot skyline diverged from oracle")
		}
	}
	if st.Stats().Compactions == 0 {
		t.Error("hammer never compacted")
	}
}

// TestStoreBatch: batch mutations publish once — version bumps by the batch
// size, a bad insert member rejects the whole batch before anything mutates,
// and a delete batch stops at the first unknown id with the prefix applied.
func TestStoreBatch(t *testing.T) {
	ds := data.Table1()
	st := flat.NewStore(ds, -1)

	ids, err := st.InsertBatch(
		[][]float64{{1, -1}, {2, -2}, {3, -3}},
		[][]order.Value{{0}, {1}, {2}},
	)
	if err != nil || len(ids) != 3 {
		t.Fatalf("InsertBatch = %v, %v", ids, err)
	}
	if st.Version() != 3 {
		t.Errorf("version after batch insert = %d, want 3", st.Version())
	}
	snap := st.Snapshot()
	if snap.DeltaRows() != 3 || snap.LiveN() != ds.N()+3 {
		t.Errorf("snapshot shape after batch: delta %d live %d", snap.DeltaRows(), snap.LiveN())
	}

	// A bad member (out-of-domain nominal) rejects the whole batch.
	if _, err := st.InsertBatch([][]float64{{1, 1}, {2, 2}}, [][]order.Value{{0}, {9}}); err == nil {
		t.Fatal("batch with bad member accepted")
	}
	if st.Version() != 3 || st.Snapshot().DeltaRows() != 3 {
		t.Error("rejected batch mutated the store")
	}

	// Delete batch: [good, good, duplicate-of-first] stops at the duplicate
	// with 2 applied.
	applied, err := st.DeleteBatch([]data.PointID{ids[0], ids[1], ids[0]})
	if !errors.Is(err, flat.ErrUnknownPoint) || applied != 2 {
		t.Fatalf("DeleteBatch = %d, %v; want 2, ErrUnknownPoint", applied, err)
	}
	if st.Version() != 5 {
		t.Errorf("version after partial delete batch = %d, want 5", st.Version())
	}
	snap = st.Snapshot()
	if snap.Tombstones() != 2 || snap.LiveN() != ds.N()+1 {
		t.Errorf("snapshot after delete batch: dead %d live %d", snap.Tombstones(), snap.LiveN())
	}
	if _, err := snap.Point(ids[2]); err != nil {
		t.Errorf("surviving batch member gone: %v", err)
	}
	// The batch-mutated store still matches the oracle and compacts cleanly.
	pref := ds.Schema().EmptyPreference()
	want := oracleSkyline(t, snap, pref)
	if got := storeSkyline(t, snap, pref); !reflect.DeepEqual(got, want) {
		t.Errorf("post-batch skyline %v, oracle %v", got, want)
	}
	st.Compact()
	if got := storeSkyline(t, st.Snapshot(), pref); !reflect.DeepEqual(got, want) {
		t.Errorf("post-compaction skyline diverged")
	}
}
