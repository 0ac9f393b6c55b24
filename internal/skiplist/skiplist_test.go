package skiplist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestInsertDeleteContains(t *testing.T) {
	l := New()
	keys := []Key{{3, 1}, {1, 2}, {2, 3}, {1, 1}}
	for _, k := range keys {
		if !l.Insert(k) {
			t.Fatalf("Insert(%v) rejected", k)
		}
	}
	if l.Len() != 4 {
		t.Fatalf("Len = %d, want 4", l.Len())
	}
	if l.Insert(Key{3, 1}) {
		t.Error("duplicate insert accepted")
	}
	for _, k := range keys {
		if !l.Contains(k) {
			t.Errorf("Contains(%v) = false", k)
		}
	}
	if l.Contains(Key{9, 9}) {
		t.Error("Contains of absent key")
	}
	if !l.Delete(Key{2, 3}) {
		t.Error("Delete of present key failed")
	}
	if l.Delete(Key{2, 3}) {
		t.Error("Delete of absent key succeeded")
	}
	if l.Len() != 3 {
		t.Errorf("Len after delete = %d, want 3", l.Len())
	}
}

func TestOrdering(t *testing.T) {
	l := New()
	for _, k := range []Key{{2, 5}, {1, 9}, {2, 1}, {0.5, 3}} {
		l.Insert(k)
	}
	want := []Key{{0.5, 3}, {1, 9}, {2, 1}, {2, 5}}
	got := l.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys len = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Keys[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if min, ok := l.Min(); !ok || min != want[0] {
		t.Errorf("Min = %v,%v", min, ok)
	}
}

func TestEmptyList(t *testing.T) {
	l := New()
	if _, ok := l.Min(); ok {
		t.Error("Min on empty list")
	}
	if _, ok := l.Front().Next(); ok {
		t.Error("cursor on empty list yielded")
	}
	if l.Delete(Key{1, 1}) {
		t.Error("Delete on empty list succeeded")
	}
}

func TestCursorAndSeek(t *testing.T) {
	l := New()
	for i := int32(0); i < 10; i++ {
		l.Insert(Key{float64(i), i})
	}
	c := l.Seek(Key{4.5, 0})
	k, ok := c.Next()
	if !ok || k.Score != 5 {
		t.Errorf("Seek(4.5).Next = %v,%v, want score 5", k, ok)
	}
	// Seek to an existing key starts at that key.
	c = l.Seek(Key{3, 3})
	k, _ = c.Next()
	if k.Score != 3 {
		t.Errorf("Seek(3).Next score = %v, want 3", k.Score)
	}
	// Walk to the end.
	count := 1
	for {
		if _, ok := c.Next(); !ok {
			break
		}
		count++
	}
	if count != 7 {
		t.Errorf("cursor yielded %d keys from score 3, want 7", count)
	}
}

func TestKeyLess(t *testing.T) {
	if !(Key{1, 5}).Less(Key{2, 0}) {
		t.Error("score ordering wrong")
	}
	if !(Key{1, 1}).Less(Key{1, 2}) {
		t.Error("id tiebreak wrong")
	}
	if (Key{1, 2}).Less(Key{1, 2}) {
		t.Error("Less not strict")
	}
}

func TestMatchesSortedSliceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l := newSeeded(seed)
		present := make(map[Key]bool)
		for op := 0; op < 400; op++ {
			k := Key{Score: float64(rng.Intn(50)), ID: int32(rng.Intn(40))}
			if rng.Intn(3) == 0 {
				if l.Delete(k) != present[k] {
					return false
				}
				delete(present, k)
			} else {
				if l.Insert(k) == present[k] {
					return false // must reject iff already present
				}
				present[k] = true
			}
		}
		if l.Len() != len(present) {
			return false
		}
		want := make([]Key, 0, len(present))
		for k := range present {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
		got := l.Keys()
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLargeAscendingDescending(t *testing.T) {
	for name, gen := range map[string]func(i int) Key{
		"ascending":  func(i int) Key { return Key{float64(i), int32(i)} },
		"descending": func(i int) Key { return Key{float64(-i), int32(i)} },
	} {
		l := New()
		const n = 5000
		for i := 0; i < n; i++ {
			l.Insert(gen(i))
		}
		if l.Len() != n {
			t.Fatalf("%s: Len = %d, want %d", name, l.Len(), n)
		}
		keys := l.Keys()
		for i := 1; i < len(keys); i++ {
			if !keys[i-1].Less(keys[i]) {
				t.Fatalf("%s: out of order at %d", name, i)
			}
		}
	}
}

func TestSizeBytesGrows(t *testing.T) {
	l := New()
	empty := l.SizeBytes()
	for i := 0; i < 100; i++ {
		l.Insert(Key{float64(i), int32(i)})
	}
	if l.SizeBytes() <= empty {
		t.Error("SizeBytes did not grow")
	}
}
