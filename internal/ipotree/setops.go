package ipotree

// Sorted-slice set operations over skyline indices. Skylines and disqualifying
// sets are ascending []int32 of positions in the root skyline S, so the set
// algebra of Theorem 2 runs in linear merges.

// union returns a ∪ b. Both inputs must be ascending.
func union(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// difference returns a − b. Both inputs must be ascending.
func difference(a, b []int32) []int32 {
	if len(b) == 0 {
		return a
	}
	out := make([]int32, 0, len(a))
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j < len(b) && b[j] == v {
			continue
		}
		out = append(out, v)
	}
	return out
}
