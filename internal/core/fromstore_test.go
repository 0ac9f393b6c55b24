package core

import (
	"context"
	"reflect"
	"testing"

	"prefsky/internal/data"
	"prefsky/internal/flat"
	"prefsky/internal/order"
)

// TestNewFromStoreMatchesNewByName: serving an existing store must answer
// every kind's skyline exactly as a fresh NewByName engine over the same
// dataset does, and mutations through the shared store must be visible to
// the engine (one store, no private copy).
func TestNewFromStoreMatchesNewByName(t *testing.T) {
	ds := data.Table1()
	schema := ds.Schema()
	tmpl := schema.EmptyPreference()
	pref, err := data.ParsePreference(schema, "Hotel-group: T<M<*")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds() {
		st := flat.NewStore(ds, -1)
		fromStore, err := NewFromStore(kind, st, tmpl, Options{Partitions: 3})
		if err != nil {
			t.Fatalf("NewFromStore(%s): %v", kind, err)
		}
		byName, err := NewByName(kind, ds, tmpl, Options{Partitions: 3})
		if err != nil {
			t.Fatalf("NewByName(%s): %v", kind, err)
		}
		for _, p := range []*order.Preference{tmpl, pref} {
			got, err := fromStore.Skyline(context.Background(), p)
			if err != nil {
				t.Fatalf("%s from store: %v", kind, err)
			}
			want, err := byName.Skyline(context.Background(), p)
			if err != nil {
				t.Fatalf("%s by name: %v", kind, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: store-backed skyline %v, fresh engine %v", kind, got, want)
			}
		}

		// The engine serves the store it was given: an insert through the
		// engine's maintenance path lands in that store and in the next query.
		maint := Maintainable(fromStore)
		if maint == nil {
			t.Fatalf("%s: store-backed engine has no maintainer", kind)
		}
		id, err := maint.Insert([]float64{100, -9}, []order.Value{0})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Snapshot().Point(id); err != nil {
			t.Fatalf("%s: maintained insert %d missing from the shared store: %v", kind, id, err)
		}
		sky, err := fromStore.Skyline(context.Background(), tmpl)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, s := range sky {
			if s == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("%s: dominating insert %d absent from skyline %v", kind, id, sky)
		}
	}
}

func TestNewFromStoreRejections(t *testing.T) {
	ds := data.Table1()
	tmpl := ds.Schema().EmptyPreference()
	st := flat.NewStore(ds, -1)
	if _, err := NewFromStore("ipo", nil, tmpl, Options{}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewFromStore("btree", st, tmpl, Options{}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
