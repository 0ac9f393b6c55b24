package flat

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"prefsky/internal/bitset"
	"prefsky/internal/data"
	"prefsky/internal/order"
)

// DefaultCompactThreshold is the delta+tombstone row count that triggers
// background compaction when a store is built with threshold 0.
const DefaultCompactThreshold = 4096

// Journal receives every mutation before it is published — the write-ahead
// hook the durability subsystem attaches. The store calls it inside the
// writer critical section, after the mutation is validated and its snapshot
// built but before the snapshot is stored (log-before-publish): a journaled
// mutation that was never published is recoverable and harmless to replay,
// whereas a published mutation missing from the journal would be lost by a
// crash. An error from the journal aborts the mutation — nothing is
// published and the caller sees the error.
//
// Insert rows arrive flattened row-major (row i is nums[i*m:(i+1)*m] and
// noms[i*l:(i+1)*l] under the store's schema); version is the store version
// the mutation produces. The slices alias store memory and must not be
// retained past the call.
type Journal interface {
	JournalInsert(ids []data.PointID, nums []float64, noms []order.Value, version uint64) error
	JournalDelete(ids []data.PointID, version uint64) error
}

// StoreStats is a point-in-time view of a store's snapshot shape and
// maintenance counters, served by /v1/stats.
type StoreStats struct {
	BaseRows    int    `json:"baseRows"`
	DeltaRows   int    `json:"deltaRows"`
	Tombstones  int    `json:"tombstones"`
	LiveRows    int    `json:"liveRows"`
	Version     uint64 `json:"version"`
	Inserts     uint64 `json:"inserts"`
	Deletes     uint64 `json:"deletes"`
	Compactions uint64 `json:"compactions"`
	// JournalFailures counts mutations aborted because the write-ahead
	// journal refused them (the durability layer degraded); nothing was
	// published for these.
	JournalFailures uint64 `json:"journalFailures"`
	Threshold       int    `json:"compactThreshold"`
	SizeBytes       int    `json:"sizeBytes"`
}

// Store is the versioned columnar point set every maintainable engine reads
// through: an atomically-swapped Snapshot pointer plus a writer lock.
//
// Readers call Snapshot() — one atomic load, never blocked by writers — and
// keep using that version for as long as they like; it is immutable. Writers
// (Insert, Delete, compaction install) serialize only among themselves on an
// internal mutex and publish each change as a fresh Snapshot. Every mutation
// bumps the version; compaction rewrites the layout without changing the
// version, because the compacted snapshot answers every query identically.
//
// When the delta segment plus tombstone count reaches the compaction
// threshold, a background goroutine rebuilds the base Block from the live
// rows off the write path: writers keep appending while the rebuild runs,
// and the install step reconciles the rows that changed in the meantime
// (append-only delta suffix by position, deletions by id).
type Store struct {
	schema    *data.Schema
	snap      atomic.Pointer[Snapshot]
	threshold int // <= 0: never compact automatically

	mu         sync.Mutex // serializes writers and compaction install
	nextID     data.PointID
	compacting bool
	deadSince  []data.PointID // ids deleted while a compaction is in flight
	hooks      []func(*Snapshot)
	journal    Journal // nil: no write-ahead logging

	inserts      atomic.Uint64
	deletes      atomic.Uint64
	compactions  atomic.Uint64
	journalFails atomic.Uint64
}

// NewStore wraps a validated dataset as a versioned store. threshold is the
// delta+tombstone row count that triggers background compaction: 0 means
// DefaultCompactThreshold, negative disables automatic compaction.
func NewStore(ds *data.Dataset, threshold int) *Store {
	if threshold == 0 {
		threshold = DefaultCompactThreshold
	}
	st := &Store{
		schema:    ds.Schema(),
		threshold: threshold,
		nextID:    data.PointID(ds.N()),
	}
	snap := newSnapshot(NewBlock(ds))
	st.snap.Store(snap)
	return st
}

// RestoreStore rebuilds a store from recovered durable state: the live
// points in ascending id order, the next id to assign (ids are never reused,
// so nextID must exceed every id ever assigned — including deleted ones) and
// the mutation version the points reflect. Every point is re-validated
// against the schema so a checkpoint or log corrupted in a way its checksums
// missed cannot poison the packed presort with non-finite numerics or
// out-of-domain nominal values.
func RestoreStore(schema *data.Schema, points []data.Point, nextID data.PointID, version uint64, threshold int) (*Store, error) {
	if schema == nil {
		return nil, fmt.Errorf("flat: nil schema")
	}
	if threshold == 0 {
		threshold = DefaultCompactThreshold
	}
	blk, err := FromPoints(schema, points)
	if err != nil {
		return nil, err
	}
	st := &Store{schema: schema, threshold: threshold, nextID: nextID}
	last := data.PointID(-1)
	for i := range points {
		p := &points[i]
		if p.ID <= last {
			return nil, fmt.Errorf("flat: restored ids not ascending: %d after %d", p.ID, last)
		}
		if err := st.validate(p.Num, p.Nom); err != nil {
			return nil, fmt.Errorf("flat: restored point %d: %w", p.ID, err)
		}
		last = p.ID
	}
	if int(nextID) <= int(last) {
		return nil, fmt.Errorf("flat: restored nextID %d not above max id %d", nextID, last)
	}
	snap := newSnapshot(blk)
	snap.version = version
	st.snap.Store(snap)
	return st, nil
}

// Schema returns the store's schema.
func (st *Store) Schema() *data.Schema { return st.schema }

// NextID returns the next point id the store will assign. It may run ahead
// of any particular snapshot's contents (ids are assigned by writers that may
// not have published yet); it never runs behind, so persisting it with a
// snapshot keeps the ids-are-never-reused guarantee across recovery.
func (st *Store) NextID() data.PointID {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nextID
}

// SetJournal attaches the store's write-ahead hook. It must be set before
// the first mutation (at open time, before the store is shared); attaching a
// journal to a store with concurrent writers is a race.
func (st *Store) SetJournal(j Journal) { st.journal = j }

// Snapshot returns the current version: one atomic load, safe to use for the
// rest of the query regardless of concurrent writers.
func (st *Store) Snapshot() *Snapshot { return st.snap.Load() }

// Version returns the current snapshot's mutation counter.
func (st *Store) Version() uint64 { return st.snap.Load().version }

// Stats snapshots the store's shape and counters.
func (st *Store) Stats() StoreStats {
	s := st.snap.Load()
	return StoreStats{
		BaseRows:        s.BaseRows(),
		DeltaRows:       s.DeltaRows(),
		Tombstones:      s.Tombstones(),
		LiveRows:        s.LiveN(),
		Version:         s.version,
		Inserts:         st.inserts.Load(),
		Deletes:         st.deletes.Load(),
		Compactions:     st.compactions.Load(),
		JournalFailures: st.journalFails.Load(),
		Threshold:       st.threshold,
		SizeBytes:       s.SizeBytes(),
	}
}

// OnCompact registers a hook called after each compaction installs, with the
// compacted snapshot, outside the store's locks. Engines use it to rebuild
// secondary structures (e.g. a materialized IPO-tree) against the compacted
// data.
func (st *Store) OnCompact(f func(*Snapshot)) {
	st.mu.Lock()
	st.hooks = append(st.hooks, f)
	st.mu.Unlock()
}

func (st *Store) validate(num []float64, nom []order.Value) error {
	if len(num) != st.schema.NumDims() {
		return fmt.Errorf("flat: %d numeric values, schema has %d", len(num), st.schema.NumDims())
	}
	for d, v := range num {
		// NaN breaks the packed presort (ScoreBits is a total order only over
		// non-NaN values) and infinities poison the §4.2 score sums, so
		// non-finite numerics are rejected at ingestion rather than silently
		// corrupting every later SFS scan.
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("flat: non-finite value %v for numeric attribute %q", v, st.schema.Numeric[d].Name)
		}
	}
	if len(nom) != st.schema.NomDims() {
		return fmt.Errorf("flat: %d nominal values, schema has %d", len(nom), st.schema.NomDims())
	}
	for d, v := range nom {
		if int(v) < 0 || int(v) >= st.schema.Nominal[d].Cardinality() {
			return fmt.Errorf("flat: nominal value %d outside domain %s", v, st.schema.Nominal[d].Name())
		}
	}
	return nil
}

// Insert appends a point to the delta segment and publishes a new snapshot.
// The assigned id is returned; ids are never reused.
func (st *Store) Insert(num []float64, nom []order.Value) (data.PointID, error) {
	if err := st.validate(num, nom); err != nil {
		return 0, err
	}
	st.mu.Lock()
	cur := st.snap.Load()
	id := st.nextID
	st.nextID++
	// Appending to the shared backing arrays is safe: rows at or beyond any
	// published snapshot's length are invisible to its readers, and writers
	// hold st.mu.
	ns := &Snapshot{
		base:    cur.base,
		dnum:    append(cur.dnum, num...),
		dnom:    append(cur.dnom, nom...),
		dids:    append(cur.dids, id),
		dead:    cur.dead,
		deadN:   cur.deadN,
		version: cur.version + 1,
	}
	if st.journal != nil {
		if err := st.journal.JournalInsert(ns.dids[len(cur.dids):], ns.dnum[len(cur.dnum):], ns.dnom[len(cur.dnom):], ns.version); err != nil {
			st.nextID = id // nothing published; the id stays unassigned
			st.journalFails.Add(1)
			st.mu.Unlock()
			return 0, fmt.Errorf("flat: journaling insert: %w", err)
		}
	}
	st.snap.Store(ns)
	st.inserts.Add(1)
	st.maybeCompactLocked(ns)
	st.mu.Unlock()
	return id, nil
}

// InsertBatch appends a batch of points and publishes one snapshot covering
// all of them: one writer-lock acquisition and one version publish (bumped
// by the batch size) instead of K, so readers see the batch atomically. The
// whole batch is validated before anything mutates; a bad member rejects it
// with nothing applied.
func (st *Store) InsertBatch(nums [][]float64, noms [][]order.Value) ([]data.PointID, error) {
	if len(nums) != len(noms) {
		return nil, fmt.Errorf("flat: %d numeric rows vs %d nominal rows", len(nums), len(noms))
	}
	for i := range nums {
		if err := st.validate(nums[i], noms[i]); err != nil {
			return nil, fmt.Errorf("flat: batch point %d: %w", i, err)
		}
	}
	if len(nums) == 0 {
		return nil, nil
	}
	st.mu.Lock()
	cur := st.snap.Load()
	dnum, dnom, dids := cur.dnum, cur.dnom, cur.dids
	ids := make([]data.PointID, len(nums))
	for i := range nums {
		ids[i] = st.nextID
		st.nextID++
		dnum = append(dnum, nums[i]...)
		dnom = append(dnom, noms[i]...)
		dids = append(dids, ids[i])
	}
	ns := &Snapshot{
		base:    cur.base,
		dnum:    dnum,
		dnom:    dnom,
		dids:    dids,
		dead:    cur.dead,
		deadN:   cur.deadN,
		version: cur.version + uint64(len(ids)),
	}
	if st.journal != nil {
		if err := st.journal.JournalInsert(ns.dids[len(cur.dids):], ns.dnum[len(cur.dnum):], ns.dnom[len(cur.dnom):], ns.version); err != nil {
			st.nextID = ids[0] // nothing published; the ids stay unassigned
			st.journalFails.Add(1)
			st.mu.Unlock()
			return nil, fmt.Errorf("flat: journaling insert batch: %w", err)
		}
	}
	st.snap.Store(ns)
	st.inserts.Add(uint64(len(ids)))
	st.maybeCompactLocked(ns)
	st.mu.Unlock()
	return ids, nil
}

// DeleteBatch tombstones a batch of ids in order, stopping at the first id
// that is unknown or already deleted (within the batch too) and reporting
// how many landed. The applied prefix is published as one snapshot — one
// tombstone-set clone and one version publish instead of K.
func (st *Store) DeleteBatch(ids []data.PointID) (int, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	st.mu.Lock()
	cur := st.snap.Load()
	var dead *bitset.Set
	if cur.dead == nil {
		dead = bitset.New(cur.Rows())
	} else {
		dead = cur.dead.CloneGrow(cur.Rows())
	}
	applied := 0
	var failErr error
	for _, id := range ids {
		row, ok := cur.rawRowOf(id)
		if !ok || dead.Contains(int(row)) {
			failErr = fmt.Errorf("%w: %d", ErrUnknownPoint, id)
			break
		}
		dead.Add(int(row))
		applied++
	}
	if applied == 0 {
		st.mu.Unlock()
		return 0, failErr
	}
	ns := &Snapshot{
		base:    cur.base,
		dnum:    cur.dnum,
		dnom:    cur.dnom,
		dids:    cur.dids,
		dead:    dead,
		deadN:   cur.deadN + applied,
		version: cur.version + uint64(applied),
	}
	if st.journal != nil {
		if err := st.journal.JournalDelete(ids[:applied], ns.version); err != nil {
			st.journalFails.Add(1)
			st.mu.Unlock()
			return 0, fmt.Errorf("flat: journaling delete batch: %w", err)
		}
	}
	if st.compacting {
		st.deadSince = append(st.deadSince, ids[:applied]...)
	}
	st.snap.Store(ns)
	st.deletes.Add(uint64(applied))
	st.maybeCompactLocked(ns)
	st.mu.Unlock()
	return applied, failErr
}

// Delete tombstones the live point with the given id and publishes a new
// snapshot. Unknown or already-deleted ids return ErrUnknownPoint.
func (st *Store) Delete(id data.PointID) error {
	st.mu.Lock()
	cur := st.snap.Load()
	row, ok := cur.RowOf(id)
	if !ok {
		st.mu.Unlock()
		return fmt.Errorf("%w: %d", ErrUnknownPoint, id)
	}
	var dead *bitset.Set
	if cur.dead == nil {
		dead = bitset.New(cur.Rows())
	} else {
		dead = cur.dead.CloneGrow(cur.Rows())
	}
	dead.Add(int(row))
	ns := &Snapshot{
		base:    cur.base,
		dnum:    cur.dnum,
		dnom:    cur.dnom,
		dids:    cur.dids,
		dead:    dead,
		deadN:   cur.deadN + 1,
		version: cur.version + 1,
	}
	if st.journal != nil {
		if err := st.journal.JournalDelete([]data.PointID{id}, ns.version); err != nil {
			st.journalFails.Add(1)
			st.mu.Unlock()
			return fmt.Errorf("flat: journaling delete: %w", err)
		}
	}
	if st.compacting {
		st.deadSince = append(st.deadSince, id)
	}
	st.snap.Store(ns)
	st.deletes.Add(1)
	st.maybeCompactLocked(ns)
	st.mu.Unlock()
	return nil
}

// maybeCompactLocked starts a background compaction when the snapshot has
// accumulated threshold delta+tombstone rows. Callers hold st.mu.
func (st *Store) maybeCompactLocked(s *Snapshot) {
	if st.threshold <= 0 || st.compacting {
		return
	}
	if s.DeltaRows()+s.Tombstones() < st.threshold {
		return
	}
	st.compacting = true
	go st.doCompact()
}

// Compact forces a synchronous compaction (tests, admin tooling). It is a
// no-op when a background compaction is already in flight.
func (st *Store) Compact() {
	st.mu.Lock()
	if st.compacting {
		st.mu.Unlock()
		return
	}
	st.compacting = true
	st.mu.Unlock()
	st.doCompact()
}

// doCompact rebuilds the base Block from the live rows of a captured
// snapshot — the expensive O(N) layout runs with no lock held — then takes
// the writer lock to reconcile mutations that landed during the rebuild:
// inserts are the delta rows past the captured length (row coordinates are
// stable between the capture and the install because the delta is
// append-only), deletions were recorded by id in deadSince and are re-marked
// against the new layout. The installed snapshot keeps the current version:
// it is query-equivalent to the state it replaces.
func (st *Store) doCompact() {
	captured := st.snap.Load()
	newBase, err := FromPoints(st.schema, captured.Points())
	if err != nil {
		// Unreachable: every row was validated on insert. Give up cleanly.
		st.mu.Lock()
		st.compacting = false
		st.deadSince = nil
		st.mu.Unlock()
		return
	}

	st.mu.Lock()
	cur := st.snap.Load()
	m, l := st.schema.NumDims(), st.schema.NomDims()
	var dnum []float64
	var dnom []order.Value
	var dids []data.PointID
	for i := captured.DeltaRows(); i < cur.DeltaRows(); i++ {
		if cur.deadRow(cur.base.n + i) {
			continue
		}
		dnum = append(dnum, cur.dnum[i*m:(i+1)*m]...)
		dnom = append(dnom, cur.dnom[i*l:(i+1)*l]...)
		dids = append(dids, cur.dids[i])
	}
	var dead *bitset.Set
	deadN := 0
	for _, id := range st.deadSince {
		// Ids deleted during the rebuild: tombstone them against the new
		// base. Ids that lived only in the replayed suffix were already
		// skipped above, and ids tombstoned before the capture never made it
		// into the new base — both miss this lookup and need nothing.
		if i, ok := slices.BinarySearch(newBase.ids, id); ok {
			if dead == nil {
				dead = bitset.New(newBase.n)
			}
			dead.Add(i)
			deadN++
		}
	}
	ns := &Snapshot{
		base:    newBase,
		dnum:    dnum,
		dnom:    dnom,
		dids:    dids,
		dead:    dead,
		deadN:   deadN,
		version: cur.version,
	}
	st.deadSince = nil
	st.compacting = false
	st.snap.Store(ns)
	st.compactions.Add(1)
	hooks := st.hooks
	st.mu.Unlock()
	for _, h := range hooks {
		h(ns)
	}
}
