package skyline

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/order"
)

// ids converts package letters to point ids for the Table 1/3 fixtures.
func ids(letters string) []data.PointID {
	out := make([]data.PointID, len(letters))
	for i, r := range letters {
		out[i] = data.PointID(r - 'a')
	}
	return out
}

// table2Cases pins the published skylines of Table 2 against the Table 1 data.
var table2Cases = []struct {
	customer string
	pref     string
	want     string
}{
	{"Alice", "Hotel-group: T<M<*", "ac"},
	{"Bob", "", "acef"},
	{"Chris", "Hotel-group: H<M<*", "ace"},
	{"David", "Hotel-group: H<M<T", "ace"},
	{"Emily", "Hotel-group: H<T<*", "ac"},
	{"Fred", "Hotel-group: M<*", "acef"},
}

func TestTable2SkylinesSFS(t *testing.T) {
	ds := data.Table1()
	for _, c := range table2Cases {
		pref, err := data.ParsePreference(ds.Schema(), c.pref)
		if err != nil {
			t.Fatalf("%s: %v", c.customer, err)
		}
		cmp := dominance.MustComparator(ds.Schema(), pref)
		got := SFS(ds.Points(), cmp)
		if !reflect.DeepEqual(got, ids(c.want)) {
			t.Errorf("%s: SFS = %v, want %v", c.customer, got, ids(c.want))
		}
	}
}

func TestTable2SkylinesAllAlgorithms(t *testing.T) {
	ds := data.Table1()
	for _, c := range table2Cases {
		pref, _ := data.ParsePreference(ds.Schema(), c.pref)
		cmp := dominance.MustComparator(ds.Schema(), pref)
		want := ids(c.want)
		if got := Naive(ds.Points(), cmp); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Naive = %v, want %v", c.customer, got, want)
		}
		if got := BNL(ds.Points(), cmp); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: BNL = %v, want %v", c.customer, got, want)
		}
	}
}

func TestTable3TemplateSkyline(t *testing.T) {
	// The root of the Figure 2 IPO-tree: SKY(∅) over Table 3 is {a,c,d,e,f}.
	ds := data.Table3()
	cmp := dominance.MustComparator(ds.Schema(), ds.Schema().EmptyPreference())
	if got := SFS(ds.Points(), cmp); !reflect.DeepEqual(got, ids("acdef")) {
		t.Errorf("SKY(∅) = %v, want %v", got, ids("acdef"))
	}
}

func TestIteratorProgressive(t *testing.T) {
	ds := data.Table1()
	cmp := dominance.MustComparator(ds.Schema(), ds.Schema().EmptyPreference())
	it := NewIterator(ds.Points(), cmp)
	var got []data.PointID
	var lastScore float64
	for i := 0; ; i++ {
		p, ok := it.Next()
		if !ok {
			break
		}
		s := cmp.Score(&p)
		if i > 0 && s < lastScore {
			t.Error("iterator yielded points out of score order")
		}
		lastScore = s
		got = append(got, p.ID)
	}
	if len(got) != 4 {
		t.Fatalf("iterator yielded %d points, want 4", len(got))
	}
}

func TestOfAndFilter(t *testing.T) {
	ds := data.Table1()
	cmp := dominance.MustComparator(ds.Schema(), ds.Schema().EmptyPreference())
	sky := SFS(ds.Points(), cmp)
	pts := Filter(ds.Points(), sky)
	if len(pts) != len(sky) {
		t.Fatalf("Filter returned %d points, want %d", len(pts), len(sky))
	}
	for i, p := range pts {
		if p.ID != sky[i] {
			t.Errorf("Filter[%d].ID = %d, want %d", i, p.ID, sky[i])
		}
	}
}

func TestDuplicatePointsBothInSkyline(t *testing.T) {
	ds := data.Table1()
	pts := []data.Point{ds.Point(0).Clone(), ds.Point(0).Clone()}
	dup, err := ds.WithPoints(pts)
	if err != nil {
		t.Fatal(err)
	}
	cmp := dominance.MustComparator(ds.Schema(), ds.Schema().EmptyPreference())
	for name, got := range map[string][]data.PointID{
		"Naive": Naive(dup.Points(), cmp),
		"BNL":   BNL(dup.Points(), cmp),
		"SFS":   SFS(dup.Points(), cmp),
	} {
		if len(got) != 2 {
			t.Errorf("%s kept %d of 2 duplicate points", name, len(got))
		}
	}
}

func TestEmptyInput(t *testing.T) {
	ds := data.Table1()
	cmp := dominance.MustComparator(ds.Schema(), ds.Schema().EmptyPreference())
	if got := SFS(nil, cmp); len(got) != 0 {
		t.Errorf("SFS(nil) = %v", got)
	}
	if got := BNL(nil, cmp); len(got) != 0 {
		t.Errorf("BNL(nil) = %v", got)
	}
	if got := Naive(nil, cmp); len(got) != 0 {
		t.Errorf("Naive(nil) = %v", got)
	}
}

func randomFixture(seed int64) (*data.Dataset, *order.Preference) {
	rng := rand.New(rand.NewSource(seed))
	numDims := 1 + rng.Intn(2)
	nomDims := 1 + rng.Intn(3)
	numeric := make([]data.NumericAttr, numDims)
	for i := range numeric {
		numeric[i] = data.NumericAttr{Name: string(rune('A' + i))}
	}
	nominal := make([]*order.Domain, nomDims)
	cards := make([]int, nomDims)
	for i := range nominal {
		cards[i] = 2 + rng.Intn(4)
		d, _ := order.NewAnonymousDomain(string(rune('N'+i)), cards[i])
		nominal[i] = d
	}
	schema, _ := data.NewSchema(numeric, nominal)
	n := 5 + rng.Intn(60)
	pts := make([]data.Point, n)
	for i := range pts {
		num := make([]float64, numDims)
		for d := range num {
			num[d] = float64(rng.Intn(6))
		}
		nom := make([]order.Value, nomDims)
		for d := range nom {
			nom[d] = order.Value(rng.Intn(cards[d]))
		}
		pts[i] = data.Point{Num: num, Nom: nom}
	}
	ds, _ := data.New(schema, pts)
	dims := make([]*order.Implicit, nomDims)
	for i := range dims {
		x := rng.Intn(cards[i] + 1)
		entries := make([]order.Value, x)
		for j, v := range rng.Perm(cards[i])[:x] {
			entries[j] = order.Value(v)
		}
		dims[i] = order.MustImplicit(cards[i], entries...)
	}
	return ds, order.MustPreference(dims...)
}

func TestAlgorithmsAgreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		ds, pref := randomFixture(seed)
		cmp, err := dominance.NewComparator(ds.Schema(), pref)
		if err != nil {
			return false
		}
		naive := Naive(ds.Points(), cmp)
		bnl := BNL(ds.Points(), cmp)
		sfs := SFS(ds.Points(), cmp)
		return reflect.DeepEqual(naive, bnl) && reflect.DeepEqual(naive, sfs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestMonotonicityTheorem1Property(t *testing.T) {
	// Theorem 1: refining the preference never adds skyline points.
	f := func(seed int64) bool {
		ds, pref := randomFixture(seed)
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		// Build a refinement by extending one dimension where possible.
		refined := pref.Clone()
		for i := 0; i < refined.NomDims(); i++ {
			ip := refined.Dim(i)
			if ip.Order() >= ip.Cardinality() {
				continue
			}
			for v := order.Value(0); int(v) < ip.Cardinality(); v++ {
				if !ip.Contains(v) && rng.Intn(2) == 0 {
					ext, err := ip.Extend(v)
					if err != nil {
						return false
					}
					refined, err = refined.WithDim(i, ext)
					if err != nil {
						return false
					}
					break
				}
			}
		}
		base := dominance.MustComparator(ds.Schema(), pref)
		ref := dominance.MustComparator(ds.Schema(), refined)
		skyBase := SFS(ds.Points(), base)
		skyRef := SFS(ds.Points(), ref)
		inBase := make(map[data.PointID]bool, len(skyBase))
		for _, id := range skyBase {
			inBase[id] = true
		}
		for _, id := range skyRef {
			if !inBase[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
