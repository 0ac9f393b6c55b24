// Package skiplist implements an ordered list keyed by (score, id) with
// expected O(log n) insert, delete and seek. It backs the presorted skyline
// list of Adaptive SFS (§4.2), where a query deletes the l affected points and
// re-inserts them with updated scores in O(l log n).
package skiplist

import (
	"math/rand"
)

const (
	maxLevel = 32
	// p is the level promotion probability; 1/4 keeps pointers compact.
	pNumerator   = 1
	pDenominator = 4
)

// Key orders list entries by score, breaking ties by id so that equal-score
// entries have a stable, deterministic order.
type Key struct {
	Score float64
	ID    int32
}

// Less reports the strict ordering of keys.
func (k Key) Less(o Key) bool {
	if k.Score != o.Score {
		return k.Score < o.Score
	}
	return k.ID < o.ID
}

type node struct {
	key  Key
	next []*node
}

// List is the skip list. Create instances with New.
type List struct {
	head  *node
	level int
	n     int
	rng   *rand.Rand
}

// New returns an empty list with a fixed tower seed (deterministic layout).
func New() *List { return newSeeded(1) }

// newSeeded returns an empty list whose tower heights derive from seed.
func newSeeded(seed int64) *List {
	return &List{
		head:  &node{next: make([]*node, maxLevel)},
		level: 1,
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Len returns the number of entries.
func (l *List) Len() int { return l.n }

func (l *List) randomLevel() int {
	lvl := 1
	for lvl < maxLevel && l.rng.Intn(pDenominator) < pNumerator {
		lvl++
	}
	return lvl
}

// findPredecessors fills update[i] with the rightmost node at level i whose
// key is strictly less than k.
func (l *List) findPredecessors(k Key, update *[maxLevel]*node) *node {
	x := l.head
	for i := l.level - 1; i >= 0; i-- {
		for x.next[i] != nil && x.next[i].key.Less(k) {
			x = x.next[i]
		}
		update[i] = x
	}
	return x
}

// Insert adds k to the list. Duplicate keys are rejected (each skyline point
// appears once); the return value reports whether the key was inserted.
func (l *List) Insert(k Key) bool {
	var update [maxLevel]*node
	x := l.findPredecessors(k, &update)
	if next := x.next[0]; next != nil && next.key == k {
		return false
	}
	lvl := l.randomLevel()
	if lvl > l.level {
		for i := l.level; i < lvl; i++ {
			update[i] = l.head
		}
		l.level = lvl
	}
	nn := &node{key: k, next: make([]*node, lvl)}
	for i := 0; i < lvl; i++ {
		nn.next[i] = update[i].next[i]
		update[i].next[i] = nn
	}
	l.n++
	return true
}

// Delete removes k and reports whether it was present.
func (l *List) Delete(k Key) bool {
	var update [maxLevel]*node
	l.findPredecessors(k, &update)
	target := update[0].next[0]
	if target == nil || target.key != k {
		return false
	}
	for i := 0; i < l.level; i++ {
		if update[i].next[i] == target {
			update[i].next[i] = target.next[i]
		}
	}
	for l.level > 1 && l.head.next[l.level-1] == nil {
		l.level--
	}
	l.n--
	return true
}

// Contains reports whether k is present.
func (l *List) Contains(k Key) bool {
	var update [maxLevel]*node
	l.findPredecessors(k, &update)
	next := update[0].next[0]
	return next != nil && next.key == k
}

// Min returns the smallest key.
func (l *List) Min() (Key, bool) {
	if l.head.next[0] == nil {
		return Key{}, false
	}
	return l.head.next[0].key, true
}

// Cursor walks the list in ascending key order.
type Cursor struct {
	node *node
}

// Front returns a cursor positioned before the first entry.
func (l *List) Front() *Cursor { return &Cursor{node: l.head} }

// Seek returns a cursor positioned before the first entry with key ≥ k.
func (l *List) Seek(k Key) *Cursor {
	var update [maxLevel]*node
	x := l.findPredecessors(k, &update)
	return &Cursor{node: x}
}

// Next advances and returns the next key; ok is false at the end.
func (c *Cursor) Next() (Key, bool) {
	if c.node == nil || c.node.next[0] == nil {
		return Key{}, false
	}
	c.node = c.node.next[0]
	return c.node.key, true
}

// Keys materializes all keys in ascending order (test and debug helper).
func (l *List) Keys() []Key {
	out := make([]Key, 0, l.n)
	for x := l.head.next[0]; x != nil; x = x.next[0] {
		out = append(out, x.key)
	}
	return out
}

// SizeBytes estimates the heap footprint of the list.
func (l *List) SizeBytes() int {
	size := 64
	for x := l.head.next[0]; x != nil; x = x.next[0] {
		size += 16 + len(x.next)*8 + 24
	}
	return size
}
