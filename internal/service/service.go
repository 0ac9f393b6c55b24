// Package service is the concurrent query layer over the paper's engines:
// the subsystem behind cmd/skylined. It hosts many named datasets at once
// and exploits the workload skew Wong et al. observe on nominal attributes —
// queries concentrate on popular values, and two preferences with equal
// canonical forms (order.Preference.CacheKey) must return identical
// skylines — so a result cache converts Zipfian traffic into hits.
//
// Three layers, each independently usable:
//
//   - Registry hosts named datasets, builds a configurable engine per
//     dataset (core.NewByName), and routes queries and maintenance to the
//     engine's versioned columnar store: queries grab the current snapshot
//     with one atomic load and are never blocked by writers, writers
//     serialize only among themselves.
//   - Cache is a sharded LRU over (dataset, registration epoch +
//     maintenance version, canonical preference) with
//     hit/semantic-hit/miss/eviction counters and state-tagged entries.
//   - Executor runs queries through the cache with a bounded worker pool and
//     exposes single and batch execution. On an exact-key miss it walks the
//     preference's refinement lattice (order.Preference.CoarserKeys): if a
//     strictly coarser preference's skyline is cached at the same store
//     version, Theorem 1 bounds the refined skyline by those candidates, so
//     the flat kernel scans a few hundred cached rows instead of the whole
//     dataset — the semi-materialization the paper contrasts with full
//     materialization, applied at query time.
//
// Service ties the three together and adds the cross-layer glue: stale-state
// cache reclamation after maintenance.
package service

import (
	"context"
	"time"

	"prefsky/internal/data"
	"prefsky/internal/order"
)

// Options configures a Service.
type Options struct {
	// CacheCapacity bounds the result cache in entries; 0 defaults to 4096,
	// negative disables caching.
	CacheCapacity int
	// CacheShards spreads the cache over independent locks; 0 defaults to 16.
	CacheShards int
	// Workers bounds concurrent engine queries; 0 defaults to GOMAXPROCS.
	Workers int
	// QueryTimeout deadline-bounds each uncached query (queue wait + engine
	// work); 0 disables the per-query deadline. Cache hits always succeed.
	QueryTimeout time.Duration
	// SemanticCandidateLimit caps how large a cached coarser skyline the
	// semantic cache path will scan on an exact-key miss; bigger cached
	// ancestors are skipped and the query falls back to the engine. 0
	// defaults to DefaultSemanticCandidateLimit (4096), negative disables
	// the semantic path entirely.
	SemanticCandidateLimit int
	// MaxQueuedQueries bounds how many engine queries may wait for a worker
	// slot before new ones are shed with ErrOverloaded (503 + Retry-After at
	// the HTTP layer). 0 defaults to DefaultQueueFactor×Workers, negative
	// disables shedding (unbounded queue — the pre-shedding behavior).
	MaxQueuedQueries int
}

// Stats is the service-wide snapshot served by GET /v1/stats.
type Stats struct {
	Cache    CacheStats    `json:"cache"`
	Queries  uint64        `json:"queries"`
	Batches  uint64        `json:"batches"`
	Workers  int           `json:"workers"`
	QueueCap int           `json:"queueCap"`
	Queued   int64         `json:"queued"`
	Shed     uint64        `json:"shed"`
	Datasets []DatasetInfo `json:"datasets"`
}

// Service is the facade cmd/skylined serves: registry + cache + executor.
type Service struct {
	reg   *Registry
	cache *Cache
	exec  *Executor
}

// New builds a service with the given options.
func New(opts Options) *Service {
	capacity := opts.CacheCapacity
	switch {
	case capacity == 0:
		capacity = 4096
	case capacity < 0:
		capacity = 0
	}
	reg := NewRegistry()
	cache := NewCache(capacity, opts.CacheShards)
	exec := NewExecutor(reg, cache, opts.Workers, opts.QueryTimeout, opts.SemanticCandidateLimit, opts.MaxQueuedQueries)
	return &Service{reg: reg, cache: cache, exec: exec}
}

// Registry exposes the dataset registry layer.
func (s *Service) Registry() *Registry { return s.reg }

// Cache exposes the result-cache layer.
func (s *Service) Cache() *Cache { return s.cache }

// AddDataset registers a dataset behind the configured engine.
func (s *Service) AddDataset(name string, ds *data.Dataset, cfg EngineConfig) error {
	return s.reg.Add(name, ds, cfg)
}

// RemoveDataset unregisters a dataset and drops its cached results.
func (s *Service) RemoveDataset(name string) bool {
	ok := s.reg.Remove(name)
	if ok {
		s.cache.InvalidateDataset(name)
	}
	return ok
}

// Datasets lists the hosted datasets.
func (s *Service) Datasets() []DatasetInfo { return s.reg.Info() }

// Schema returns a dataset's schema, used to parse preference strings.
func (s *Service) Schema(name string) (*data.Schema, error) { return s.reg.Schema(name) }

// Point returns one point of a dataset for response rendering.
func (s *Service) Point(name string, id data.PointID) (data.Point, error) {
	return s.reg.Point(name, id)
}

// Query answers SKY(pref) over the named dataset through the cache — exact
// key first, then the refinement lattice — and the worker pool. The returned
// Outcome reports which path served the result. The context bounds the whole
// query — queue wait included — so a disconnected client frees its worker
// slot instead of burning it. The returned slice is shared with the cache;
// treat it as immutable.
func (s *Service) Query(ctx context.Context, dataset string, pref *order.Preference) (ids []data.PointID, outcome Outcome, err error) {
	return s.exec.Query(ctx, dataset, pref)
}

// Batch answers many preferences over one dataset through the worker pool
// under one shared context.
func (s *Service) Batch(ctx context.Context, dataset string, prefs []*order.Preference) []QueryResult {
	return s.exec.Batch(ctx, dataset, prefs)
}

// invalidateStale reclaims the dataset's cached entries left unreachable by
// a version bump: it records the dataset's new state with the cache (so even
// a racing Put tagged with the superseded state is rejected) and drops every
// entry tagged with an older one. If the dataset vanished concurrently, the
// whole tag is dropped instead.
func (s *Service) invalidateStale(dataset string) {
	state, err := s.reg.State(dataset)
	if err != nil {
		s.cache.InvalidateDataset(dataset)
		return
	}
	s.cache.InvalidateStale(dataset, state)
}

// Insert adds a point to a maintainable dataset and reclaims its
// stale-state cached results. State-tagged keys (registration epoch +
// maintenance version) already make superseded entries unreachable, so the
// reclamation is pure storage hygiene — and recording the new state lets the
// cache reject Puts racing in with the old one.
func (s *Service) Insert(dataset string, num []float64, nom []order.Value) (data.PointID, error) {
	id, err := s.reg.Insert(dataset, num, nom)
	if err != nil {
		return 0, err
	}
	s.invalidateStale(dataset)
	return id, nil
}

// Delete removes a point from a maintainable dataset and reclaims its
// stale-state cached results.
func (s *Service) Delete(dataset string, id data.PointID) error {
	if err := s.reg.Delete(dataset, id); err != nil {
		return err
	}
	s.invalidateStale(dataset)
	return nil
}

// InsertBatch applies a batch of inserts, stopping at the first failure, and
// reclaims the dataset's stale-state cached results if anything was applied.
// The ids of the points inserted so far are always returned.
func (s *Service) InsertBatch(dataset string, pts []PointInput) ([]data.PointID, error) {
	ids, err := s.reg.InsertBatch(dataset, pts)
	if len(ids) > 0 {
		s.invalidateStale(dataset)
	}
	return ids, err
}

// DeleteBatch applies a batch of deletes, stopping at the first failure, and
// reclaims the dataset's stale-state cached results if anything was applied.
// applied reports how many deletes landed.
func (s *Service) DeleteBatch(dataset string, ids []data.PointID) (applied int, err error) {
	applied, err = s.reg.DeleteBatch(dataset, ids)
	if applied > 0 {
		s.invalidateStale(dataset)
	}
	return applied, err
}

// Close flushes and closes every durable dataset: final checkpoint, WAL
// sync, log closed. Call it after traffic has drained (cmd/skylined runs it
// after the HTTP server's graceful shutdown completes).
func (s *Service) Close() error { return s.reg.Close() }

// Stats snapshots the whole service.
func (s *Service) Stats() Stats {
	queries, batches := s.exec.Counters()
	datasets := s.reg.Info()
	return Stats{
		Cache:    s.cache.Stats(),
		Queries:  queries,
		Batches:  batches,
		Workers:  s.exec.Workers(),
		QueueCap: s.exec.QueueCap(),
		Queued:   s.exec.Queued(),
		Shed:     s.exec.Shed(),
		Datasets: datasets,
	}
}
