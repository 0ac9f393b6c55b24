package main

import (
	"fmt"
	"slices"

	"prefsky/internal/data"
	"prefsky/internal/dominance"
	"prefsky/internal/order"
	"prefsky/internal/skyline"
)

// oracle computes the expected skyline of every preference a workload sends,
// independently of the columnar kernel (internal/flat) the server runs.
//
// The template skyline is computed once with skyline.SFS, the pointer kernel.
// Every request refines the template, so by the paper's Theorem 1 its skyline
// is a subset of the template skyline, and a point of the template skyline
// that a refinement drops is dominated by another point of the template
// skyline (dominance is transitive). Each preference is therefore answered
// over those few candidates only, with dominance.Comparator deciding every
// pair. spotCheck compares a sample against skyline.SFS over the full data in
// every run, so a fault in this shortcut fails the run.
type oracle struct {
	schema   *data.Schema
	template *order.Preference
	cand     *candidates // SKY(template), the candidates of every refinement
}

func newOracle(schema *data.Schema, points []data.Point, template *order.Preference) (*oracle, error) {
	tc, err := dominance.NewComparator(schema, template)
	if err != nil {
		return nil, err
	}
	return &oracle{
		schema:   schema,
		template: template,
		cand:     newCandidates(skyline.Filter(points, skyline.SFS(points, tc))),
	}, nil
}

// skylineOf returns SKY(pref) as ascending point ids. pref must refine the
// oracle's template.
func (o *oracle) skylineOf(pref *order.Preference) ([]data.PointID, error) {
	if !pref.Refines(o.template) {
		return nil, fmt.Errorf("oracle: preference %s does not refine the template", pref)
	}
	c, err := dominance.NewComparator(o.schema, pref)
	if err != nil {
		return nil, err
	}
	return o.cand.skyline(c), nil
}

// candidates is a point set closed under "is dominated by" for every
// preference asked of it, with, for each point, the others that are no worse
// on every numeric dimension. Only those can dominate it, whatever the
// preference; on anti-correlated data they are a few dozen of thousands, so a
// preference costs a short list per point instead of a scan of the set.
type candidates struct {
	points []data.Point
	numLeq [][]int32 // numLeq[q]: every p != q with p.Num[k] <= q.Num[k] for all k
}

func newCandidates(points []data.Point) *candidates {
	c := &candidates{points: points, numLeq: make([][]int32, len(points))}
	for q := range points {
		for p := range points {
			if p != q && numLeq(points[p].Num, points[q].Num) {
				c.numLeq[q] = append(c.numLeq[q], int32(p))
			}
		}
	}
	return c
}

func numLeq(p, q []float64) bool {
	for k, v := range p {
		if v > q[k] {
			return false
		}
	}
	return true
}

// skyline returns the ids of the points no other point dominates under cmp,
// ascending.
func (c *candidates) skyline(cmp *dominance.Comparator) []data.PointID {
	out := make([]data.PointID, 0, len(c.points))
	for q := range c.points {
		if !slices.ContainsFunc(c.numLeq[q], func(p int32) bool { return cmp.Dominates(&c.points[p], &c.points[q]) }) {
			out = append(out, c.points[q].ID)
		}
	}
	slices.Sort(out)
	return out
}

// spotCheck compares the candidate shortcut against skyline.SFS over all
// points for the given preferences.
func (o *oracle) spotCheck(points []data.Point, prefs []*order.Preference) error {
	for _, p := range prefs {
		c, err := dominance.NewComparator(o.schema, p)
		if err != nil {
			return err
		}
		got, err := o.skylineOf(p)
		if err != nil {
			return err
		}
		if want := skyline.SFS(points, c); !slices.Equal(got, want) {
			return fmt.Errorf("oracle: candidate shortcut gives %d ids, skyline.SFS over all points %d, for %s",
				len(got), len(want), data.FormatPreference(o.schema, p))
		}
	}
	return nil
}
