package ipotree

import (
	"fmt"

	"prefsky/internal/bitset"
	"prefsky/internal/data"
	"prefsky/internal/order"
)

// Query evaluates SKY(R̃′) with Algorithms 1 and 2: the query is decomposed
// into first-order components per dimension, each component is answered by a
// materialized node, and the partial results are combined with the merging
// property (Theorem 2). Results are point ids in ascending order.
//
// The number of set operations is O(x^m′) for an order-x preference over m′
// nominal dimensions (§3.2). Trees built with UseBitmap evaluate the same
// algebra over bitsets.
func (t *Tree) Query(pref *order.Preference) ([]data.PointID, error) {
	if err := t.validate(pref); err != nil {
		return nil, err
	}
	if t.opts.UseBitmap {
		return t.queryBitmap(pref)
	}
	all := make([]int32, len(t.sky))
	for i := range all {
		all[i] = int32(i)
	}
	x, err := t.query(0, pref, t.root, all)
	if err != nil {
		return nil, err
	}
	return t.toIDs(x), nil
}

// query implements Algorithm 1 over sorted position slices. s is the set of
// still-qualified positions handed down by the caller; the claim maintained
// is that the result equals SKY(π) ∩ s, where π agrees with the node's path
// labels below d and with the query preference from d on.
func (t *Tree) query(d int, pref *order.Preference, n *node, s []int32) ([]int32, error) {
	if d == len(t.cards) {
		return s, nil
	}
	ip := pref.Dim(d)
	if ip.Order() == 0 {
		return t.query(d+1, pref, n.phi, s)
	}
	var x []int32
	for i := range ip.Order() {
		v := ip.Entry(i + 1)
		child := n.children[v]
		if child == nil {
			return nil, fmt.Errorf("%w: dimension %d value %d", ErrNotMaterialized, d, v)
		}
		y, err := t.query(d+1, pref, child, difference(s, child.a))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			x = y
			continue
		}
		// Theorem 2: SKY(v1..vi) = (SKY(v1..v_{i−1}) ∩ SKY(vi≺*)) ∪ PSKY,
		// with PSKY the members of the running result whose dimension-d value
		// is one of the already-merged entries (Algorithm 2).
		z := t.filterByPrefix(x, d, ip, i)
		x = union(intersect(x, y), z)
	}
	return x, nil
}

// Materialized reports the error Query would return for the preference
// without evaluating any set algebra: validate (shape, cardinalities,
// template refinement) followed by the same depth-first traversal Query
// performs, checking only that every visited node exists. Callers that need
// the acceptance contract but not the answer — the service's semantic-cache
// validation — use it to avoid paying for a full query.
func (t *Tree) Materialized(pref *order.Preference) error {
	if err := t.validate(pref); err != nil {
		return err
	}
	return t.materialized(0, pref, t.root)
}

// materialized mirrors query/accumulate/queryBits traversal order, so the
// first missing node reported is identical to the error the evaluators raise.
func (t *Tree) materialized(d int, pref *order.Preference, n *node) error {
	if d == len(t.cards) {
		return nil
	}
	ip := pref.Dim(d)
	if ip.Order() == 0 {
		return t.materialized(d+1, pref, n.phi)
	}
	for i := range ip.Order() {
		v := ip.Entry(i + 1)
		child := n.children[v]
		if child == nil {
			return fmt.Errorf("%w: dimension %d value %d", ErrNotMaterialized, d, v)
		}
		if err := t.materialized(d+1, pref, child); err != nil {
			return err
		}
	}
	return nil
}

// filterByPrefix returns the positions in x whose dimension-d value is one of
// ip's first i entries.
func (t *Tree) filterByPrefix(x []int32, d int, ip *order.Implicit, i int) []int32 {
	var out []int32
	col := t.nomOf[d]
	for _, pos := range x {
		if p := ip.Position(col[pos]); p >= 1 && p <= i {
			out = append(out, pos)
		}
	}
	return out
}

// QueryAccumulated evaluates the query with the paper's alternative
// implementation (§3.2): instead of threading skyline sets, it accumulates the
// disqualified set A(R̃′′′) = A(R̃′) ∪ (A(R̃′′) − B) bottom-up and subtracts it
// from the root skyline once at the end.
func (t *Tree) QueryAccumulated(pref *order.Preference) ([]data.PointID, error) {
	if err := t.validate(pref); err != nil {
		return nil, err
	}
	disq, err := t.accumulate(0, pref, t.root)
	if err != nil {
		return nil, err
	}
	all := make([]int32, len(t.sky))
	for i := range all {
		all[i] = int32(i)
	}
	return t.toIDs(difference(all, disq)), nil
}

// accumulate returns the full disqualified set for the preference that follows
// the node's path below d and the query from d on.
func (t *Tree) accumulate(d int, pref *order.Preference, n *node) ([]int32, error) {
	if d == len(t.cards) {
		return n.a, nil
	}
	ip := pref.Dim(d)
	if ip.Order() == 0 {
		return t.accumulate(d+1, pref, n.phi)
	}
	var x []int32
	for i := range ip.Order() {
		v := ip.Entry(i + 1)
		child := n.children[v]
		if child == nil {
			return nil, fmt.Errorf("%w: dimension %d value %d", ErrNotMaterialized, d, v)
		}
		y, err := t.accumulate(d+1, pref, child)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			x = y
			continue
		}
		// A(R̃′′′) = A(R̃′) ∪ (A(R̃′′) − B), where B holds the points of
		// A(R̃′′) whose dimension-d value is among the merged entries.
		b := t.filterByPrefix(y, d, ip, i)
		x = union(x, difference(y, b))
	}
	return x, nil
}

// queryBitmap evaluates Algorithm 1 with bitwise set operations (§3.2).
func (t *Tree) queryBitmap(pref *order.Preference) ([]data.PointID, error) {
	s := bitset.New(len(t.sky))
	s.Fill()
	x, err := t.queryBits(0, pref, t.root, s)
	if err != nil {
		return nil, err
	}
	return t.toIDs(x.Indices(nil)), nil
}

func (t *Tree) queryBits(d int, pref *order.Preference, n *node, s *bitset.Set) (*bitset.Set, error) {
	if d == len(t.cards) {
		return s, nil
	}
	ip := pref.Dim(d)
	if ip.Order() == 0 {
		return t.queryBits(d+1, pref, n.phi, s)
	}
	var x *bitset.Set
	prefixVals := bitset.New(len(t.sky))
	for i := range ip.Order() {
		v := ip.Entry(i + 1)
		child := n.children[v]
		if child == nil {
			return nil, fmt.Errorf("%w: dimension %d value %d", ErrNotMaterialized, d, v)
		}
		y, err := t.queryBits(d+1, pref, child, s.AndNot(child.abits))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			x = y
			continue
		}
		prefixVals.OrWith(t.valBits[d][ip.Entry(i)])
		z := x.And(prefixVals)
		x = x.AndWith(y).OrWith(z)
	}
	return x, nil
}

func (t *Tree) toIDs(positions []int32) []data.PointID {
	out := make([]data.PointID, len(positions))
	for i, pos := range positions {
		out[i] = t.sky[pos]
	}
	return out
}
