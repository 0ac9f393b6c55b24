package ipotree

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestSetOpsBasics(t *testing.T) {
	a := []int32{1, 3, 5, 7}
	b := []int32{3, 4, 5, 9}
	if got := union(a, b); !reflect.DeepEqual(got, []int32{1, 3, 4, 5, 7, 9}) {
		t.Errorf("union = %v", got)
	}
	if got := difference(a, b); !reflect.DeepEqual(got, []int32{1, 7}) {
		t.Errorf("difference = %v", got)
	}
}

func TestSetOpsEmpty(t *testing.T) {
	a := []int32{1, 2}
	if got := union(nil, a); !reflect.DeepEqual(got, a) {
		t.Errorf("union with empty = %v", got)
	}
	if got := difference(a, nil); !reflect.DeepEqual(got, a) {
		t.Errorf("difference with empty = %v", got)
	}
	if got := difference(nil, a); len(got) != 0 {
		t.Errorf("difference of empty = %v", got)
	}
}

func TestSetOpsMatchMapSemanticsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mk := func() ([]int32, map[int32]bool) {
			m := make(map[int32]bool)
			for i := 0; i < rng.Intn(40); i++ {
				m[int32(rng.Intn(30))] = true
			}
			s := make([]int32, 0, len(m))
			for v := range m {
				s = append(s, v)
			}
			slices.Sort(s)
			return s, m
		}
		a, am := mk()
		b, bm := mk()
		check := func(got []int32, pred func(v int32) bool) bool {
			want := make([]int32, 0)
			for v := int32(0); v < 30; v++ {
				if pred(v) {
					want = append(want, v)
				}
			}
			return reflect.DeepEqual(got, want) || (len(got) == 0 && len(want) == 0)
		}
		return check(union(a, b), func(v int32) bool { return am[v] || bm[v] }) &&
			check(difference(a, b), func(v int32) bool { return am[v] && !bm[v] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
