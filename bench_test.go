// Benchmarks regenerating the paper's evaluation (§5): one family per figure,
// covering query time (the figures' panel b) with engine storage attached as
// a custom metric (panel c), plus preprocessing benches (panel a) and
// ablations. Percentage metrics (panel d) are printed
// by cmd/experiments, which runs the full harness.
//
// Sizes are laptop-scale (see EXPERIMENTS.md): the paper's 500K-tuple default
// maps to 5K here and the trends, not the absolute numbers, are the target.
package prefsky_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"prefsky/internal/adaptive"
	"prefsky/internal/core"
	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/gen"
	"prefsky/internal/ipotree"
	"prefsky/internal/nursery"
	"prefsky/internal/order"
	"prefsky/internal/skyline"
)

// workload bundles a dataset, template and query set; engines attach lazily
// and are shared across sub-benchmarks.
type workload struct {
	ds      *data.Dataset
	tmpl    *order.Preference
	queries []*order.Preference

	once struct{ ipo, topk, sfsa, sfsd sync.Once }
	ipo  core.Engine
	topk core.Engine
	sfsa *adaptive.Engine
	sfsd *core.SFSD
}

type workloadKey struct {
	n, nomDims, card, ord int
	real                  bool
}

var (
	workloadMu    sync.Mutex
	workloadCache = map[workloadKey]*workload{}
)

// getWorkload builds (or reuses) the workload for the key. Synthetic
// workloads follow the Table 4 defaults with the frequent-value template.
func getWorkload(b *testing.B, key workloadKey) *workload {
	b.Helper()
	workloadMu.Lock()
	defer workloadMu.Unlock()
	if w, ok := workloadCache[key]; ok {
		return w
	}
	w := &workload{}
	var err error
	if key.real {
		w.ds, err = nursery.Dataset()
		if err != nil {
			b.Fatal(err)
		}
		w.tmpl = w.ds.Schema().EmptyPreference()
	} else {
		w.ds, err = gen.Dataset(gen.Config{
			N: key.n, NumDims: 3, NomDims: key.nomDims, Cardinality: key.card,
			Theta: 1, Kind: gen.AntiCorrelated, Seed: 20080101,
		})
		if err != nil {
			b.Fatal(err)
		}
		w.tmpl, err = gen.FrequentTemplate(w.ds)
		if err != nil {
			b.Fatal(err)
		}
	}
	w.queries, err = gen.Queries(w.ds.Schema().Cardinalities(), w.tmpl, gen.QueryConfig{
		Order: key.ord, Count: 16, Mode: gen.Zipfian, Theta: 1, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	workloadCache[key] = w
	return w
}

func (w *workload) ipoTree(b *testing.B) core.Engine {
	w.once.ipo.Do(func() {
		e, err := core.NewIPOTree(w.ds, w.tmpl, ipotree.Options{})
		if err != nil {
			b.Fatal(err)
		}
		w.ipo = e
	})
	return w.ipo
}

func (w *workload) ipoTopK(b *testing.B) core.Engine {
	w.once.topk.Do(func() {
		e, err := core.NewHybrid(w.ds, w.tmpl, ipotree.Options{TopK: 10})
		if err != nil {
			b.Fatal(err)
		}
		w.topk = e
	})
	return w.topk
}

func (w *workload) adaptiveSFS(b *testing.B) *adaptive.Engine {
	w.once.sfsa.Do(func() {
		e, err := adaptive.New(w.ds, w.tmpl)
		if err != nil {
			b.Fatal(err)
		}
		w.sfsa = e
	})
	return w.sfsa
}

func (w *workload) sfsD(b *testing.B) *core.SFSD {
	w.once.sfsd.Do(func() {
		e, err := core.NewSFSD(w.ds)
		if err != nil {
			b.Fatal(err)
		}
		w.sfsd = e
	})
	return w.sfsd
}

// benchQueries runs every engine's query workload as sub-benchmarks and
// reports retained storage as a custom metric (the figures' panel c).
func benchQueries(b *testing.B, w *workload, fullTree bool) {
	type bench struct {
		name    string
		storage func() int
		run     func(q *order.Preference) error
	}
	var list []bench
	if fullTree {
		e := w.ipoTree(b)
		list = append(list, bench{"IPO_Tree", e.SizeBytes, func(q *order.Preference) error {
			_, err := e.Skyline(context.Background(), q)
			return err
		}})
	}
	topk := w.ipoTopK(b)
	list = append(list, bench{"IPO_Tree-10", topk.SizeBytes, func(q *order.Preference) error {
		_, err := topk.Skyline(context.Background(), q)
		return err
	}})
	sfsa := w.adaptiveSFS(b)
	list = append(list, bench{"SFS-A", sfsa.SizeBytes, func(q *order.Preference) error {
		_, err := sfsa.Query(q)
		return err
	}})
	sfsd := w.sfsD(b)
	list = append(list, bench{"SFS-D", sfsd.SizeBytes, func(q *order.Preference) error {
		_, err := sfsd.Skyline(context.Background(), q)
		return err
	}})
	for _, bb := range list {
		b.Run(bb.name, func(b *testing.B) {
			b.ReportMetric(float64(bb.storage()), "storage-B")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bb.run(w.queries[i%len(w.queries)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4 — query time vs database size (paper: 250K..1000K tuples,
// here ×1/100).
func BenchmarkFigure4(b *testing.B) {
	for _, n := range []int{2500, 5000, 7500, 10000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			w := getWorkload(b, workloadKey{n: n, nomDims: 2, card: 20, ord: 3})
			benchQueries(b, w, true)
		})
	}
}

// BenchmarkFigure5 — query time vs dimensionality (3 numeric + 1..4 nominal).
// Cardinality is reduced to 10 so the full tree stays buildable at 7 dims.
func BenchmarkFigure5(b *testing.B) {
	for nom := 1; nom <= 4; nom++ {
		b.Run(fmt.Sprintf("dims=%d", 3+nom), func(b *testing.B) {
			w := getWorkload(b, workloadKey{n: 2000, nomDims: nom, card: 10, ord: 3})
			benchQueries(b, w, nom <= 3)
		})
	}
}

// BenchmarkFigure6 — query time vs nominal cardinality (10..40).
func BenchmarkFigure6(b *testing.B) {
	for _, card := range []int{10, 20, 30, 40} {
		b.Run(fmt.Sprintf("card=%d", card), func(b *testing.B) {
			w := getWorkload(b, workloadKey{n: 2500, nomDims: 2, card: card, ord: 3})
			benchQueries(b, w, true)
		})
	}
}

// BenchmarkFigure7 — query time vs order of the implicit preference (1..4).
func BenchmarkFigure7(b *testing.B) {
	for ord := 1; ord <= 4; ord++ {
		b.Run(fmt.Sprintf("order=%d", ord), func(b *testing.B) {
			w := getWorkload(b, workloadKey{n: 5000, nomDims: 2, card: 20, ord: ord})
			benchQueries(b, w, true)
		})
	}
}

// BenchmarkFigure8 — query time vs order on the real Nursery data set (0..3).
func BenchmarkFigure8(b *testing.B) {
	for ord := 0; ord <= 3; ord++ {
		b.Run(fmt.Sprintf("order=%d", ord), func(b *testing.B) {
			w := getWorkload(b, workloadKey{real: true, ord: ord})
			benchQueries(b, w, true)
		})
	}
}

// BenchmarkPreprocess — the figures' panel (a): engine construction cost at
// the default point (N scaled down further; tree construction dominates).
func BenchmarkPreprocess(b *testing.B) {
	key := workloadKey{n: 2000, nomDims: 2, card: 20, ord: 3}
	w := getWorkload(b, key)
	b.Run("IPO_Tree", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewIPOTree(w.ds, w.tmpl, ipotree.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("IPO_Tree-10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.NewIPOTree(w.ds, w.tmpl, ipotree.Options{TopK: 10}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SFS-A", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := adaptive.New(w.ds, w.tmpl); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationTreeQueryVariants compares the three implementations of
// the Theorem 2 algebra: skyline-set threading (Algorithm 1), accumulated
// disqualified sets, and bitmaps (§3.2 implementation notes).
func BenchmarkAblationTreeQueryVariants(b *testing.B) {
	w := getWorkload(b, workloadKey{n: 5000, nomDims: 2, card: 20, ord: 3})
	plain, err := ipotree.Build(w.ds, w.tmpl, ipotree.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bitmap, err := ipotree.Build(w.ds, w.tmpl, ipotree.Options{UseBitmap: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sets", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plain.Query(w.queries[i%len(w.queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("accumulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plain.QueryAccumulated(w.queries[i%len(w.queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bitmap", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bitmap.Query(w.queries[i%len(w.queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAdaptiveVariants compares the merge-scan Adaptive SFS
// query with the paper-faithful skip-list delete/re-insert (§4.2).
func BenchmarkAblationAdaptiveVariants(b *testing.B) {
	w := getWorkload(b, workloadKey{n: 10000, nomDims: 2, card: 20, ord: 3})
	e := w.adaptiveSFS(b)
	b.Run("merge-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.Query(w.queries[i%len(w.queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("skiplist-resort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := e.QueryResort(w.queries[i%len(w.queries)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationBaselines compares the classic full-dataset algorithms
// under a fixed order-3 preference.
func BenchmarkAblationBaselines(b *testing.B) {
	w := getWorkload(b, workloadKey{n: 2500, nomDims: 2, card: 20, ord: 3})
	cmp, err := dominance.NewComparator(w.ds.Schema(), w.queries[0])
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skyline.Naive(w.ds.Points(), cmp)
		}
	})
	b.Run("BNL", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skyline.BNL(w.ds.Points(), cmp)
		}
	})
	b.Run("SFS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			skyline.SFS(w.ds.Points(), cmp)
		}
	})
}

// BenchmarkAblationMaintenance measures §4.3 incremental updates.
func BenchmarkAblationMaintenance(b *testing.B) {
	w := getWorkload(b, workloadKey{n: 5000, nomDims: 2, card: 20, ord: 3})
	e, err := adaptive.New(w.ds, w.tmpl)
	if err != nil {
		b.Fatal(err)
	}
	num := []float64{0.4, 0.5, 0.6}
	nom := []order.Value{1, 2}
	b.Run("insert+delete", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			id, err := e.Insert(num, nom)
			if err != nil {
				b.Fatal(err)
			}
			if err := e.Delete(id); err != nil {
				b.Fatal(err)
			}
		}
	})
}
