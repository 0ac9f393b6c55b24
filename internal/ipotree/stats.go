package ipotree

import (
	"prefsky/internal/data"
	"prefsky/internal/order"
)

// QueryStats counts the work of one query evaluation. §3.2 bounds the number
// of set operations of an order-x query over m′ nominal dimensions by
// O(x^m′); LeafVisits is exactly the leaf count of the evaluation diagram
// (Figure 3) and Merges the number of Theorem-2 applications.
type QueryStats struct {
	// NodesVisited counts tree nodes touched (including φ hops).
	NodesVisited int
	// LeafVisits counts recursion leaves — Π_d max(order_d, 1).
	LeafVisits int
	// Merges counts Theorem 2 merge steps — each performs one intersection,
	// one union and one PSKY filter.
	Merges int
}

// QueryWithStats evaluates the query like Query while counting the set
// operations performed. It always uses the sorted-set implementation.
func (t *Tree) QueryWithStats(pref *order.Preference) ([]data.PointID, QueryStats, error) {
	var st QueryStats
	if err := t.validate(pref); err != nil {
		return nil, st, err
	}
	all := make([]int32, len(t.sky))
	for i := range all {
		all[i] = int32(i)
	}
	x, err := t.queryCounted(0, pref, t.root, all, &st)
	if err != nil {
		return nil, st, err
	}
	return t.toIDs(x), st, nil
}

func (t *Tree) queryCounted(d int, pref *order.Preference, n *node, s []int32, st *QueryStats) ([]int32, error) {
	st.NodesVisited++
	if d == len(t.cards) {
		st.LeafVisits++
		return s, nil
	}
	ip := pref.Dim(d)
	if ip.Order() == 0 {
		return t.queryCounted(d+1, pref, n.phi, s, st)
	}
	var x []int32
	for i := range ip.Order() {
		v := ip.Entry(i + 1)
		child := n.children[v]
		if child == nil {
			return nil, &notMaterializedError{dim: d, value: v}
		}
		y, err := t.queryCounted(d+1, pref, child, difference(s, child.a), st)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			x = y
			continue
		}
		st.Merges++
		z := t.filterByPrefix(x, d, ip, i)
		x = union(intersect(x, y), z)
	}
	return x, nil
}

// notMaterializedError wraps ErrNotMaterialized with location context.
type notMaterializedError struct {
	dim   int
	value order.Value
}

func (e *notMaterializedError) Error() string {
	return ErrNotMaterialized.Error()
}

func (e *notMaterializedError) Unwrap() error { return ErrNotMaterialized }
