package ipotree

import (
	"errors"
	"reflect"
	"testing"

	"prefsky/internal/data"
	"prefsky/internal/gen"
	"prefsky/internal/order"
)

// TestSetOperationBound verifies the §3.2 complexity claim directly: an
// order-x query over m′ nominal dimensions visits exactly Π max(x_d,1)
// recursion leaves and performs Π x_d − leaves-per-dim merges.
func TestSetOperationBound(t *testing.T) {
	ds, err := gen.Dataset(gen.Config{
		N: 300, NumDims: 2, NomDims: 3, Cardinality: 6,
		Theta: 1, Kind: gen.Independent, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tmpl := ds.Schema().EmptyPreference()
	tree, err := Build(ds, tmpl, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		orders []int
	}{
		{[]int{1, 1, 1}},
		{[]int{2, 2, 2}},
		{[]int{3, 3, 3}},
		{[]int{3, 1, 2}},
		{[]int{0, 2, 0}},
		{[]int{4, 4, 4}},
	}
	for _, c := range cases {
		dims := make([]*order.Implicit, 3)
		for d, x := range c.orders {
			entries := make([]order.Value, x)
			for j := range entries {
				entries[j] = order.Value(j)
			}
			dims[d] = order.MustImplicit(6, entries...)
		}
		pref := order.MustPreference(dims...)
		ids, st, err := tree.QueryWithStats(pref)
		if err != nil {
			t.Fatalf("%v: %v", c.orders, err)
		}
		wantLeaves := 1
		for _, x := range c.orders {
			if x > 1 {
				wantLeaves *= x
			}
		}
		if st.LeafVisits != wantLeaves {
			t.Errorf("orders %v: leaves = %d, want %d (the x^m′ bound)",
				c.orders, st.LeafVisits, wantLeaves)
		}
		// Merge count: at each level, (x_d − 1) merges per surviving branch.
		// For uniform order x over m′ dims: Σ_{d} (x−1)·x^(d) … easier check:
		// merges = leaves − branches entered, verified against plain Query
		// for result agreement instead.
		want, err := tree.Query(pref)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ids, want) {
			t.Errorf("orders %v: QueryWithStats disagrees with Query", c.orders)
		}
	}
}

func TestQueryWithStatsErrors(t *testing.T) {
	ds := data.Table3()
	tree, err := Build(ds, ds.Schema().EmptyPreference(), Options{TopK: 1})
	if err != nil {
		t.Fatal(err)
	}
	missing, _ := data.ParsePreference(ds.Schema(), "Hotel-group: M<*")
	if _, _, err := tree.QueryWithStats(missing); !errors.Is(err, ErrNotMaterialized) {
		t.Errorf("error = %v, want ErrNotMaterialized", err)
	}
	if _, _, err := tree.QueryWithStats(nil); err == nil {
		t.Error("nil preference accepted")
	}
}

func TestQueryWithStatsMergeCounts(t *testing.T) {
	// Two dimensions of order 2: the evaluation diagram of Figure 3 — four
	// leaves, one level-1 merge and two level-2 merges.
	ds := data.Table3()
	tree, err := Build(ds, ds.Schema().EmptyPreference(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pref, _ := data.ParsePreference(ds.Schema(), "Hotel-group: M<H<*; Airline: G<R<*")
	_, st, err := tree.QueryWithStats(pref)
	if err != nil {
		t.Fatal(err)
	}
	if st.LeafVisits != 4 {
		t.Errorf("leaves = %d, want 4 (Figure 3)", st.LeafVisits)
	}
	if st.Merges != 3 {
		t.Errorf("merges = %d, want 3 (two level-2 + one level-1)", st.Merges)
	}
}

// TestMaterializedAllocs pins the acceptance walk to zero allocations: it
// reads each dimension's entries in place instead of copying them per node.
func TestMaterializedAllocs(t *testing.T) {
	ds, err := gen.Dataset(gen.Config{
		N: 2000, NumDims: 2, NomDims: 2, Cardinality: 6,
		Theta: 1, Kind: gen.Independent, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(ds, ds.Schema().EmptyPreference(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pref := order.MustPreference(order.MustImplicit(6, 2, 0, 4), order.MustImplicit(6, 1, 5, 3))
	allocs := testing.AllocsPerRun(100, func() {
		if err := tree.Materialized(pref); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Materialized allocates %v times per call, want 0", allocs)
	}
}

// TestQueryAllocs pins the sorted-set evaluator's allocations on the tree of
// TestMaterializedAllocs: each Theorem-2 merge is one pass over the running
// result, not an intersection, a prefix filter and a union.
func TestQueryAllocs(t *testing.T) {
	ds, err := gen.Dataset(gen.Config{
		N: 2000, NumDims: 2, NomDims: 2, Cardinality: 6,
		Theta: 1, Kind: gen.Independent, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Build(ds, ds.Schema().EmptyPreference(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	pref := order.MustPreference(order.MustImplicit(6, 2, 0, 4), order.MustImplicit(6, 1, 5, 3))
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := tree.Query(pref); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 22 {
		t.Errorf("Query allocates %v times per call, want at most 22", allocs)
	}
}
