package service

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"

	"prefsky/internal/data"
)

// CacheStats reports result-cache counters since construction. Misses counts
// lookups the cache could not answer, neither directly nor by patching a
// stale entry; SemanticHits counts the subset of those misses that were
// answered from the refinement lattice (a cached coarser skyline scanned with
// the flat kernel), so full engine executions = Misses − SemanticHits.
// StalePuts counts Puts refused because the entry already reflects a newer
// store version.
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

// Answer is a skyline as the cache holds it: ascending ids, the store version
// they reflect, and the id watermark of a snapshot at that version (the id of
// its last row, plus 1). Ids are assigned in ascending order and never
// reused, so every point inserted after Version has an id ≥ Watermark — what
// lets the executor bring the answer to a newer snapshot instead of dropping
// it.
type Answer struct {
	IDs       []data.PointID
	Version   uint64
	Watermark data.PointID
}

// Cache is a sharded LRU result cache keyed by (dataset, registration epoch,
// canonical preference). Sharding keeps lock contention low under concurrent
// query traffic: a key is hashed to one shard and only that shard's mutex is
// taken. Cached id slices are shared, not copied — callers must treat them
// as immutable.
//
// Writes do not sweep the cache: an entry records the store version its
// answer reflects, and the executor patches an entry from an older version
// on lookup. Put is monotone per key — it never replaces an entry that
// reflects a newer version — so a query racing with a writer cannot park an
// older answer over a fresher one.
type Cache struct {
	shards []cacheShard
	seed   maphash.Seed

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
	ans     Answer
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
	c := &Cache{shards: make([]cacheShard, shards), seed: maphash.MakeSeed()}
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
	return e.ans.IDs, true
}

// Probe returns the cached answer for the key without touching the hit/miss
// counters — the lookup of the executor, which counts the outcome once it
// knows whether the entry is current or could be patched, and of the
// semantic cache path, whose single outcome is counted by MarkSemanticHit
// rather than once per probed key. A found entry is still marked most
// recently used: serving from it is a use.
func (c *Cache) Probe(key string) (Answer, bool) {
	if c.Disabled() {
		return Answer{}, false
	}
	e, ok := c.lookup(key)
	if !ok {
		return Answer{}, false
	}
	return e.ans, true
}

// record counts one lookup outcome: a hit (served from the cache, directly
// or patched) or a miss.
func (c *Cache) record(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// MarkSemanticHit counts one exact-miss query answered from the refinement
// lattice.
func (c *Cache) MarkSemanticHit() { c.semanticHits.Add(1) }

// Put stores the answer for the key, evicting the shard's least recently
// used entry when full. dataset tags the entry for InvalidateDataset. An
// existing entry that reflects a newer version than a.Version is kept and
// the Put counted in StalePuts: a query that read an older snapshot
// finishes after one that read a newer one, and its answer must not replace
// the fresher one.
func (c *Cache) Put(key, dataset string, a Answer) {
	if c.Disabled() {
		return
	}
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	e := &cacheEntry{key: key, dataset: dataset, ans: a}
	if el, ok := s.byKey[key]; ok {
		if el.Value.(*cacheEntry).ans.Version > a.Version {
			c.stalePuts.Add(1)
			return
		}
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

// InvalidateDataset drops every entry tagged with the dataset, returning the
// number removed. Called when a dataset is removed or replaced: keys embed
// the registration epoch, so the entries are already unreachable and this
// reclaims their storage.
func (c *Cache) InvalidateDataset(dataset string) int {
	if c.Disabled() {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.ll.Front(); el != nil; {
			next := el.Next()
			if e := el.Value.(*cacheEntry); e.dataset == dataset {
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
