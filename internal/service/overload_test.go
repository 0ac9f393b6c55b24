package service

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"prefsky/internal/gen"
	"prefsky/internal/order"
)

// overloadFixture registers one dataset and returns n canonically distinct
// preferences for it, so every query is an honest cache miss.
func overloadFixture(t *testing.T, n int) (*Registry, []*order.Preference) {
	t.Helper()
	ds, err := gen.Dataset(gen.Config{
		N: 400, NumDims: 2, NomDims: 2, Cardinality: 5,
		Theta: 1, Kind: gen.AntiCorrelated, Seed: 81,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add("d", ds, EngineConfig{Kind: "sfsd"}); err != nil {
		t.Fatal(err)
	}
	queries, err := gen.Queries(ds.Schema().Cardinalities(), ds.Schema().EmptyPreference(),
		gen.QueryConfig{Order: 2, Count: 4 * n, Mode: gen.Uniform, Seed: 82})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	var distinct []*order.Preference
	for _, q := range queries {
		k := q.Canonical().CacheKey()
		if seen[k] {
			continue
		}
		seen[k] = true
		distinct = append(distinct, q)
		if len(distinct) == n {
			return reg, distinct
		}
	}
	t.Fatalf("only %d canonically distinct preferences out of %d generated, need %d",
		len(distinct), len(queries), n)
	return nil, nil
}

// waitQueued polls until the executor reports n queued queries.
func waitQueued(t *testing.T, x *Executor, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for x.Queued() != n {
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d after 5s, want %d", x.Queued(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShedsAtQueueCap: with the pool saturated and the admission
// queue full, the next engine query is shed immediately with ErrOverloaded —
// it never parks — while cache hits keep being served slot-free, and normal
// service resumes once the backlog drains.
func TestOverloadShedsAtQueueCap(t *testing.T) {
	reg, prefs := overloadFixture(t, 4)
	// 1 worker, queue cap 2, semantic path off so only the exact cache can
	// bypass the pool.
	x := NewExecutor(reg, NewCache(16, 1), 1, 0, -1, 2)
	warm := prefs[0]
	wantIDs, outcome, err := x.Query(context.Background(), "d", warm)
	if err != nil || outcome != OutcomeEngine {
		t.Fatalf("warmup: outcome=%v err=%v", outcome, err)
	}

	x.sem <- struct{}{} // saturate the pool: a long engine query in flight
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		p := prefs[1+i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.Query(ctx, "d", p) // parks in the admission queue
		}()
	}
	waitQueued(t, x, 2)

	// Queue full: the next miss is shed without blocking. The generous bound
	// only guards against a regression to parking; the real sub-millisecond
	// latency is measured end to end by the benchmark module.
	start := time.Now()
	_, _, err = x.Query(context.Background(), "d", prefs[3])
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("query over full queue = %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("shed took %v, want immediate", elapsed)
	}
	if got := x.Shed(); got != 1 {
		t.Fatalf("shed counter = %d, want 1", got)
	}

	// Overload does not touch the cache path: the warm query still hits.
	got, outcome, err := x.Query(context.Background(), "d", warm)
	if err != nil || !outcome.CacheHit() {
		t.Fatalf("cache hit under overload: outcome=%v err=%v", outcome, err)
	}
	if len(got) != len(wantIDs) {
		t.Fatalf("cache hit returned %d ids, want %d", len(got), len(wantIDs))
	}

	// Drain the backlog; the previously shed preference now runs normally.
	cancel()
	wg.Wait()
	<-x.sem
	if _, _, err := x.Query(context.Background(), "d", prefs[3]); err != nil {
		t.Fatalf("query after drain: %v", err)
	}
	if got := x.Queued(); got != 0 {
		t.Fatalf("queued after drain = %d, want 0", got)
	}
}

// TestBatchShedsWhenOverloaded: the vectorized batch path respects the same
// admission queue — a shed batch fails every miss member with ErrOverloaded
// positionally instead of parking.
func TestBatchShedsWhenOverloaded(t *testing.T) {
	reg, prefs := overloadFixture(t, 3)
	x := NewExecutor(reg, NewCache(0, 1), 1, 0, -1, 1)
	x.sem <- struct{}{} // saturate the pool
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		x.Query(ctx, "d", prefs[0]) // fills the queue's single seat
	}()
	waitQueued(t, x, 1)

	results := x.Batch(context.Background(), "d", []*order.Preference{prefs[1], prefs[2]})
	if len(results) != 2 {
		t.Fatalf("results = %d, want 2", len(results))
	}
	for i, r := range results {
		if !errors.Is(r.Err, ErrOverloaded) {
			t.Errorf("member %d error = %v, want ErrOverloaded", i, r.Err)
		}
	}
	cancel()
	wg.Wait()
	<-x.sem
}

// TestQueueCapDefaults pins the configuration contract: 0 sizes the queue at
// DefaultQueueFactor×workers, negative disables shedding entirely.
func TestQueueCapDefaults(t *testing.T) {
	reg := NewRegistry()
	if got := NewExecutor(reg, NewCache(0, 1), 4, 0, 0, 0).QueueCap(); got != 4*DefaultQueueFactor {
		t.Fatalf("default queue cap = %d, want %d", got, 4*DefaultQueueFactor)
	}
	if got := NewExecutor(reg, NewCache(0, 1), 4, 0, 0, -1).QueueCap(); got >= 0 {
		t.Fatalf("negative cap = %d, want unbounded (< 0)", got)
	}
	if got := NewExecutor(reg, NewCache(0, 1), 4, 0, 0, 3).QueueCap(); got != 3 {
		t.Fatalf("explicit cap = %d, want 3", got)
	}
}
