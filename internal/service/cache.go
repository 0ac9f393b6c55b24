package service

import (
	"container/list"
	"hash/maphash"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"prefsky/internal/data"
)

// CacheStats reports result-cache counters since construction. Misses counts
// exact-key misses; SemanticHits counts the subset of those misses that were
// answered from the refinement lattice (a cached coarser skyline scanned with
// the flat kernel), so full engine executions = Misses − SemanticHits.
type CacheStats struct {
	Hits          uint64 `json:"hits"`
	SemanticHits  uint64 `json:"semanticHits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	StalePuts     uint64 `json:"stalePuts"`
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
}

// Cache is a sharded LRU result cache keyed by (dataset, canonical
// preference). Sharding keeps lock contention low under concurrent query
// traffic: a key is hashed to one shard and only that shard's mutex is taken.
// Cached id slices are shared, not copied — callers must treat them as
// immutable.
//
// Entries are tagged with the dataset state token they were computed against.
// InvalidateStale records a dataset's current state and reclaims every entry
// tagged with a superseded one; once a state is recorded, Puts carrying any
// other state are rejected, so a query racing with maintenance cannot park an
// unreachable result in the cache (its key embeds the dead state, so it would
// never be read again, only evicted by LRU pressure).
type Cache struct {
	shards []cacheShard
	seed   maphash.Seed

	stateMu sync.Mutex
	states  map[string]string // dataset → current state token

	hits          atomic.Uint64
	semanticHits  atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
	stalePuts     atomic.Uint64
}

type cacheShard struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key     string
	dataset string
	state   string
	ids     []data.PointID
}

// NewCache builds a cache holding at most capacity entries spread over the
// given number of shards. capacity <= 0 disables caching (every lookup
// misses); shards <= 0 defaults to 16. Shards with zero residual capacity are
// rounded up to one entry each so small capacities still cache.
func NewCache(capacity, shards int) *Cache {
	if shards <= 0 {
		shards = 16
	}
	if capacity > 0 && shards > capacity {
		shards = capacity
	}
	c := &Cache{shards: make([]cacheShard, shards), seed: maphash.MakeSeed(), states: make(map[string]string)}
	if capacity <= 0 {
		return c
	}
	per := capacity / shards
	extra := capacity % shards
	for i := range c.shards {
		c.shards[i].cap = per
		if i < extra {
			c.shards[i].cap++
		}
		c.shards[i].ll = list.New()
		c.shards[i].byKey = make(map[string]*list.Element)
	}
	return c
}

// Disabled reports whether the cache keeps nothing (capacity zero): every
// put is dropped and every lookup misses.
func (c *Cache) Disabled() bool { return c.shards[0].cap == 0 }

func (c *Cache) shard(key string) *cacheShard {
	h := maphash.String(c.seed, key)
	return &c.shards[h%uint64(len(c.shards))]
}

// lookup returns the entry for the key, marking it most recently used.
// Entries are immutable once installed (put replaces, never rewrites), so
// the caller reads the returned entry without holding the shard lock.
func (c *Cache) lookup(key string) (*cacheEntry, bool) {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.byKey[key]
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	e := el.Value.(*cacheEntry)
	return e, true
}

// Get returns the cached skyline for the key, marking it most recently used
// and counting the outcome as an exact hit or miss.
func (c *Cache) Get(key string) ([]data.PointID, bool) {
	if c.Disabled() {
		c.misses.Add(1)
		return nil, false
	}
	e, ok := c.lookup(key)
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e.ids, true
}

// Probe returns the cached skyline for the key without touching the hit/miss
// counters — the ancestor lookup of the semantic cache path, whose single
// outcome is counted by MarkSemanticHit rather than once per probed key. A
// found entry is still marked most recently used: serving refinements from it
// is a use.
func (c *Cache) Probe(key string) ([]data.PointID, bool) {
	if c.Disabled() {
		return nil, false
	}
	e, ok := c.lookup(key)
	if !ok {
		return nil, false
	}
	return e.ids, true
}

// MarkSemanticHit counts one exact-miss query answered from the refinement
// lattice.
func (c *Cache) MarkSemanticHit() { c.semanticHits.Add(1) }

// Put stores the skyline for the key, evicting the shard's least recently
// used entry when full. dataset and state tag the entry for InvalidateStale /
// InvalidateDataset; a Put whose state is already superseded (InvalidateStale
// recorded a different current state for the dataset) is dropped, so racing
// writers cannot park unreachable results.
func (c *Cache) Put(key, dataset, state string, ids []data.PointID) {
	if c.Disabled() {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	// The staleness check runs under the shard lock: InvalidateStale records
	// the new state before sweeping, so either this Put sees the new state
	// and rejects itself, or it lands before the sweep reaches this shard and
	// the sweep reclaims it. Only a Put *older* than the recorded state is
	// stale — a query can read a freshly bumped version and Put before the
	// writer's invalidation records it, and that entry is the freshest
	// possible (the eventual sweep keeps it: its state IS the new state).
	c.stateMu.Lock()
	cur, tracked := c.states[dataset]
	c.stateMu.Unlock()
	if tracked && cur != state && !stateNewer(state, cur) {
		c.stalePuts.Add(1)
		return
	}
	e := &cacheEntry{key: key, dataset: dataset, state: state, ids: ids}
	if el, ok := s.byKey[key]; ok {
		el.Value = e
		s.ll.MoveToFront(el)
		return
	}
	if s.ll.Len() >= s.cap {
		back := s.ll.Back()
		s.ll.Remove(back)
		delete(s.byKey, back.Value.(*cacheEntry).key)
		c.evictions.Add(1)
	}
	s.byKey[key] = s.ll.PushFront(e)
}

// sweep removes every entry of the dataset for which drop returns true,
// returning the number removed.
func (c *Cache) sweep(dataset string, drop func(*cacheEntry) bool) int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); e.dataset == dataset && drop(e) {
				s.ll.Remove(el)
				delete(s.byKey, e.key)
				n++
			}
			el = next
		}
		s.mu.Unlock()
	}
	c.invalidations.Add(uint64(n))
	return n
}

// parseState splits an "epoch.version" token into its two counters.
func parseState(s string) (epoch, version uint64, ok bool) {
	e, v, found := strings.Cut(s, ".")
	if !found {
		return 0, 0, false
	}
	epoch, err := strconv.ParseUint(e, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	version, err = strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, 0, false
	}
	return epoch, version, true
}

// stateNewer reports whether token a names a strictly later dataset state
// than b (higher registration epoch, or same epoch and higher maintenance
// version). Unparseable tokens are never considered newer, falling back to
// plain overwrite semantics.
func stateNewer(a, b string) bool {
	ae, av, ok := parseState(a)
	if !ok {
		return false
	}
	be, bv, ok := parseState(b)
	if !ok {
		return false
	}
	return ae > be || (ae == be && av > bv)
}

// InvalidateStale records the dataset's current state token and reclaims
// every cached entry tagged with a superseded one, returning the number
// removed. Called after maintenance bumps the store version: state-embedding
// keys already make stale entries unreachable, so this is storage
// reclamation — without it a write-heavy dataset pins a cache full of
// unservable results until LRU pressure evicts them.
//
// The recorded state is monotone: two writers race their post-mutation
// invalidations, and if the slower one arrives carrying an older token, a
// plain overwrite would sweep the newer writer's valid entries and then
// reject every current-state Put until the next mutation. An older (or
// equal) token is therefore a no-op when a newer one is already recorded.
func (c *Cache) InvalidateStale(dataset, state string) int {
	if c.Disabled() {
		return 0
	}
	c.stateMu.Lock()
	if cur, ok := c.states[dataset]; ok && !stateNewer(state, cur) {
		c.stateMu.Unlock()
		return 0
	}
	c.states[dataset] = state
	c.stateMu.Unlock()
	return c.sweep(dataset, func(e *cacheEntry) bool { return e.state != state })
}

// InvalidateDataset drops every entry tagged with the dataset, returning the
// number removed, and forgets the dataset's recorded state (the name may be
// re-registered over different data under a fresh epoch). Called when a
// dataset is removed.
func (c *Cache) InvalidateDataset(dataset string) int {
	if c.Disabled() {
		return 0
	}
	c.stateMu.Lock()
	delete(c.states, dataset)
	c.stateMu.Unlock()
	return c.sweep(dataset, func(*cacheEntry) bool { return true })
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c.Disabled() {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.ll.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() CacheStats {
	capacity := 0
	for i := range c.shards {
		capacity += c.shards[i].cap
	}
	return CacheStats{
		Hits:          c.hits.Load(),
		SemanticHits:  c.semanticHits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		StalePuts:     c.stalePuts.Load(),
		Entries:       c.Len(),
		Capacity:      capacity,
	}
}
