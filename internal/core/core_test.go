package core

import (
	"context"
	"reflect"
	"testing"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/ipotree"
	"prefsky/internal/order"
	"prefsky/internal/skyline"
)

func engines(t *testing.T) []Engine {
	t.Helper()
	ds := data.Table1()
	tmpl := ds.Schema().EmptyPreference()
	ipo, err := NewIPOTree(ds, tmpl, ipotree.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sfsa, err := NewAdaptiveSFS(ds, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	sfsd, err := NewSFSD(ds)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := NewHybrid(ds, tmpl, ipotree.Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	psfs, err := NewParallelSFS(ds, 3)
	if err != nil {
		t.Fatal(err)
	}
	phyb, err := NewParallelHybrid(ds, tmpl, ipotree.Options{TopK: 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	return []Engine{ipo, sfsa, sfsd, hyb, psfs, phyb}
}

func TestAllEnginesAgreeOnTable2(t *testing.T) {
	schema := data.Table1().Schema()
	cases := []struct {
		pref, want string
	}{
		{"Hotel-group: T<M<*", "ac"},
		{"", "acef"},
		{"Hotel-group: H<M<*", "ace"},
		{"Hotel-group: H<M<T", "ace"},
		{"Hotel-group: H<T<*", "ac"},
		{"Hotel-group: M<*", "acef"},
	}
	for _, e := range engines(t) {
		for _, c := range cases {
			pref, err := data.ParsePreference(schema, c.pref)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.Skyline(context.Background(), pref)
			if err != nil {
				t.Fatalf("%s: Skyline(%q): %v", e.Name(), c.pref, err)
			}
			want := make([]data.PointID, len(c.want))
			for i, r := range c.want {
				want[i] = data.PointID(r - 'a')
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Skyline(%q) = %v, want %v", e.Name(), c.pref, got, want)
			}
		}
	}
}

func TestEngineNames(t *testing.T) {
	want := []string{"IPO Tree", "SFS-A", "SFS-D", "Hybrid", "Parallel-SFS", "Parallel-Hybrid"}
	for i, e := range engines(t) {
		if e.Name() != want[i] {
			t.Errorf("engine %d name = %q, want %q", i, e.Name(), want[i])
		}
	}
	ds := data.Table1()
	topk, err := NewIPOTree(ds, ds.Schema().EmptyPreference(), ipotree.Options{TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if topk.Name() != "IPO Tree-2" {
		t.Errorf("TopK name = %q", topk.Name())
	}
}

func TestStorageOrdering(t *testing.T) {
	// SFS-D and Parallel-SFS keep nothing; the materializing engines keep
	// something.
	es := engines(t)
	for _, e := range es {
		if e.Name() == "SFS-D" || e.Name() == "Parallel-SFS" {
			if e.SizeBytes() != 0 {
				t.Errorf("%s SizeBytes = %d, want 0", e.Name(), e.SizeBytes())
			}
		} else if e.SizeBytes() <= 0 {
			t.Errorf("%s SizeBytes = %d, want > 0", e.Name(), e.SizeBytes())
		}
	}
}

func TestConstructorErrors(t *testing.T) {
	if _, err := NewSFSD(nil); err == nil {
		t.Error("NewSFSD(nil) accepted")
	}
	if _, err := NewIPOTree(nil, nil, ipotree.Options{}); err == nil {
		t.Error("NewIPOTree(nil) accepted")
	}
	if _, err := NewAdaptiveSFS(nil, nil); err == nil {
		t.Error("NewAdaptiveSFS(nil) accepted")
	}
	if _, err := NewHybrid(nil, nil, ipotree.Options{}); err == nil {
		t.Error("NewHybrid(nil) accepted")
	}
	if _, err := NewParallelSFS(nil, 2); err == nil {
		t.Error("NewParallelSFS(nil) accepted")
	}
	if _, err := NewParallelHybrid(nil, nil, ipotree.Options{}, 2); err == nil {
		t.Error("NewParallelHybrid(nil) accepted")
	}
}

func TestNewByName(t *testing.T) {
	ds := data.Table1()
	tmpl := ds.Schema().EmptyPreference()
	cases := map[string]string{
		"ipo":     "IPO Tree",
		"IPOTree": "IPO Tree",
		"sfsa":    "SFS-A",
		"SFS-A":   "SFS-A",
		"sfsd":    "SFS-D",
		"sfs-d":   "SFS-D",
		"hybrid":  "Hybrid",

		"parallel-sfs":    "Parallel-SFS",
		"psfs":            "Parallel-SFS",
		"parallel-hybrid": "Parallel-Hybrid",
		"phybrid":         "Parallel-Hybrid",
	}
	for kind, want := range cases {
		e, err := NewByName(kind, ds, tmpl, Options{Partitions: 2})
		if err != nil {
			t.Fatalf("NewByName(%q): %v", kind, err)
		}
		if e.Name() != want {
			t.Errorf("NewByName(%q).Name() = %q, want %q", kind, e.Name(), want)
		}
	}
	if _, err := NewByName("bogus", ds, tmpl, Options{}); err == nil {
		t.Error("NewByName(bogus) succeeded, want error")
	}
	for _, kind := range Kinds() {
		if _, err := NewByName(kind, ds, tmpl, Options{}); err != nil {
			t.Errorf("NewByName(%q) from Kinds(): %v", kind, err)
		}
	}
}

// TestCanceledContextRejected: every engine refuses an already-canceled
// context instead of doing work.
func TestCanceledContextRejected(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pref := data.Table1().Schema().EmptyPreference()
	for _, e := range engines(t) {
		if _, err := e.Skyline(ctx, pref); err == nil {
			t.Errorf("%s: Skyline with canceled context succeeded", e.Name())
		}
	}
}

func TestMaintainable(t *testing.T) {
	ds := data.Table1()
	tmpl := ds.Schema().EmptyPreference()
	// Every kind is maintainable and store-backed.
	for _, kind := range Kinds() {
		e, err := NewByName(kind, ds, tmpl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if Maintainable(e) == nil {
			t.Errorf("Maintainable(%s) = nil, want maintainer", kind)
		}
		if StoreOf(e) == nil {
			t.Errorf("StoreOf(%s) = nil, want versioned store", kind)
		}
	}
}

// TestKernelOptionAgreement: the scan-based engines built through Options
// agree with the sequential SFS oracle on Table 2.
func TestKernelOptionAgreement(t *testing.T) {
	ds := data.Table1()
	tmpl := ds.Schema().EmptyPreference()
	for _, kind := range []string{"sfsd", "parallel-sfs", "parallel-hybrid"} {
		e, err := NewByName(kind, ds, tmpl, Options{Partitions: 3})
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []string{"", "Hotel-group: T<M<*", "Hotel-group: H<M<T"} {
			pref, err := data.ParsePreference(ds.Schema(), spec)
			if err != nil {
				t.Fatal(err)
			}
			want := skyline.SFS(ds.Points(), dominance.MustComparator(ds.Schema(), pref))
			got, err := e.Skyline(context.Background(), pref)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q: engine %v, SFS %v", kind, spec, got, want)
			}
		}
	}
}

// TestSFSDFlatCancelsMidScan: the flat SFS-D path threads the query context
// into the scan, so an already-canceled context aborts with ctx.Err() even
// past the entry check.
func TestSFSDFlatCancelsMidScan(t *testing.T) {
	ds := data.Table1()
	e, err := NewSFSD(ds)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Skyline(ctx, ds.Schema().EmptyPreference()); err == nil {
		t.Fatal("canceled context accepted")
	}
}

// TestMaintenanceAcrossKinds: every engine kind applies §4.3
// maintenance — a dominating insert takes over the skyline, a delete
// restores it — and after compaction the tree-backed engines serve through a
// rebuilt, id-remapped tree with identical results.
func TestMaintenanceAcrossKinds(t *testing.T) {
	ctx := context.Background()
	for _, kind := range Kinds() {
		ds := data.Table1()
		tmpl := ds.Schema().EmptyPreference()
		e, err := NewByName(kind, ds, tmpl, Options{Tree: ipotree.Options{}, Partitions: 2, CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		m := Maintainable(e)
		if m == nil {
			t.Fatalf("%s: not maintainable", kind)
		}
		pref, err := data.ParsePreference(ds.Schema(), "Hotel-group: T<M<*")
		if err != nil {
			t.Fatal(err)
		}
		before, err := e.Skyline(ctx, pref)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}

		// Under T<M<*, a free 5-star hotel of group T dominates every
		// Table-1 point (T's rank is strictly best and its numerics are).
		id, err := m.Insert([]float64{0, -5}, []order.Value{0})
		if err != nil {
			t.Fatalf("%s: Insert: %v", kind, err)
		}
		got, err := e.Skyline(ctx, pref)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(got, []data.PointID{id}) {
			t.Errorf("%s: skyline after dominating insert = %v, want [%d]", kind, got, id)
		}
		if v := StoreOf(e).Version(); v != 1 {
			t.Errorf("%s: version = %d, want 1", kind, v)
		}

		// Delete an original point too, then compact: the store rewrites its
		// base layout (ids no longer equal rows) and the tree-backed engines
		// rebuild their tree against it — results must not change.
		if err := m.Delete(0); err != nil {
			t.Fatalf("%s: Delete: %v", kind, err)
		}
		want, err := e.Skyline(ctx, pref)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		StoreOf(e).Compact()
		snap := StoreOf(e).Snapshot()
		if snap.DeltaRows() != 0 || snap.Tombstones() != 0 {
			t.Errorf("%s: compaction left delta %d dead %d", kind, snap.DeltaRows(), snap.Tombstones())
		}
		got, err = e.Skyline(ctx, pref)
		if err != nil {
			t.Fatalf("%s: post-compaction: %v", kind, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: post-compaction skyline = %v, want %v", kind, got, want)
		}

		// Delete the dominator: the original skyline (minus point 0, which
		// may promote others) must be a valid restoration — compare against
		// the sequential SFS oracle over the live points.
		if err := m.Delete(id); err != nil {
			t.Fatalf("%s: Delete(%d): %v", kind, id, err)
		}
		wantIDs := skyline.SFS(StoreOf(e).Snapshot().Points(), dominance.MustComparator(ds.Schema(), pref))
		got, err = e.Skyline(ctx, pref)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !reflect.DeepEqual(got, wantIDs) {
			t.Errorf("%s: skyline after deletes = %v, want %v", kind, got, wantIDs)
		}
		_ = before
	}
}

// TestIPOStaleContractConsistent: on a TopK-restricted bare ipo engine, a
// query naming an unmaterialized value fails identically before maintenance,
// while the tree is stale, and after compaction rebuilds the tree —
// maintenance timing never flips it between error and success.
func TestIPOStaleContractConsistent(t *testing.T) {
	ctx := context.Background()
	ds := data.Table1()
	tmpl := ds.Schema().EmptyPreference()
	// Materialize only {T, M}: any preference naming H is unmaterialized.
	e, err := NewByName("ipo", ds, tmpl, Options{
		Tree:             ipotree.Options{Values: [][]order.Value{{0, 2}}},
		CompactThreshold: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	unmat, err := data.ParsePreference(ds.Schema(), "Hotel-group: H<*")
	if err != nil {
		t.Fatal(err)
	}
	mat, err := data.ParsePreference(ds.Schema(), "Hotel-group: T<*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Skyline(ctx, unmat); err == nil {
		t.Fatal("unmaterialized query succeeded on the fresh tree")
	}
	if _, err := Maintainable(e).Insert([]float64{0, -5}, []order.Value{0}); err != nil {
		t.Fatal(err)
	}
	// Tree is stale now: materialized queries scan, unmaterialized ones
	// must keep failing.
	if _, err := e.Skyline(ctx, mat); err != nil {
		t.Fatalf("materialized query on stale tree: %v", err)
	}
	if _, err := e.Skyline(ctx, unmat); err == nil {
		t.Error("unmaterialized query succeeded while the tree was stale")
	}
	StoreOf(e).Compact()
	if _, err := e.Skyline(ctx, unmat); err == nil {
		t.Error("unmaterialized query succeeded after compaction")
	}
	if _, err := e.Skyline(ctx, mat); err != nil {
		t.Fatalf("materialized query after compaction: %v", err)
	}
}
