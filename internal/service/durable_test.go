package service

import (
	"context"
	"reflect"
	"testing"

	"prefsky/internal/data"
	"prefsky/internal/durable"
	"prefsky/internal/order"
)

// TestDurableDatasetSurvivesRestart registers a durable dataset, mutates it
// through the service, closes, and re-registers over the same directory: the
// mutations must survive, the seed must not re-apply, and the durability
// stats must be exposed through Datasets().
func TestDurableDatasetSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := EngineConfig{
		Kind:    "sfsa",
		Durable: &durable.Config{Dir: dir, Fsync: durable.FsyncOff},
	}

	svc := New(Options{})
	if err := svc.AddDataset("pkg", data.Table1(), cfg); err != nil {
		t.Fatal(err)
	}
	id, err := svc.Insert("pkg", []float64{100, -9}, []order.Value{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Delete("pkg", 1); err != nil {
		t.Fatal(err)
	}
	want, _, err := svc.Query(context.Background(), "pkg", data.Table1().Schema().EmptyPreference())
	if err != nil {
		t.Fatal(err)
	}
	infos := svc.Datasets()
	if len(infos) != 1 || infos[0].Durability == nil {
		t.Fatalf("durability stats missing from %+v", infos)
	}
	if infos[0].Durability.WALRecords != 2 {
		t.Fatalf("WALRecords = %d, want 2", infos[0].Durability.WALRecords)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh service over the same directory, same seed dataset.
	svc2 := New(Options{})
	defer svc2.Close()
	if err := svc2.AddDataset("pkg", data.Table1(), cfg); err != nil {
		t.Fatal(err)
	}
	infos = svc2.Datasets()
	if len(infos) != 1 || infos[0].Durability == nil || !infos[0].Durability.Recovery.FromDisk {
		t.Fatalf("restart did not recover from disk: %+v", infos)
	}
	got, _, err := svc2.Query(context.Background(), "pkg", data.Table1().Schema().EmptyPreference())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("skyline after restart %v, want %v", got, want)
	}
	if _, err := svc2.Point("pkg", id); err != nil {
		t.Fatalf("inserted point %d lost across restart: %v", id, err)
	}
	if _, err := svc2.Point("pkg", 1); err == nil {
		t.Fatal("deleted point 1 resurrected across restart")
	}
}

// TestRemoveClosesDurableState: removing a durable dataset must release its
// WAL so the directory can be registered again in-process.
func TestRemoveClosesDurableState(t *testing.T) {
	dir := t.TempDir()
	cfg := EngineConfig{Kind: "sfsd", Durable: &durable.Config{Dir: dir, Fsync: durable.FsyncOff}}
	svc := New(Options{})
	defer svc.Close()
	if err := svc.AddDataset("a", data.Table1(), cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Insert("a", []float64{50, -1}, []order.Value{1}); err != nil {
		t.Fatal(err)
	}
	if !svc.RemoveDataset("a") {
		t.Fatal("remove failed")
	}
	if err := svc.AddDataset("b", data.Table1(), cfg); err != nil {
		t.Fatal(err)
	}
	got, _, err := svc.Query(context.Background(), "b", data.Table1().Schema().EmptyPreference())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("re-registered durable dataset lost its state")
	}
	infos := svc.Datasets()
	if len(infos) != 1 || !infos[0].Durability.Recovery.FromDisk {
		t.Fatal("re-registration did not recover the removed dataset's state")
	}
}
