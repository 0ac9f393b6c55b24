package order

import (
	"fmt"
	"strings"
)

// Preference assigns an implicit preference to every nominal dimension of a
// dataset. It models both the template R̃ (the universal orders all users
// share) and a user query R̃′. The paper's convention R̃ = (R̃1, …, R̃m′).
type Preference struct {
	dims []*Implicit
}

// NewPreference builds a preference from per-dimension implicit preferences.
// Every dimension must be non-nil (use an order-0 Implicit for "no preference").
func NewPreference(dims ...*Implicit) (*Preference, error) {
	for i, d := range dims {
		if d == nil {
			return nil, fmt.Errorf("order: preference dimension %d is nil", i)
		}
	}
	return &Preference{dims: append([]*Implicit(nil), dims...)}, nil
}

// MustPreference is NewPreference that panics on error.
func MustPreference(dims ...*Implicit) *Preference {
	p, err := NewPreference(dims...)
	if err != nil {
		panic(err)
	}
	return p
}

// EmptyPreference returns the order-0 preference (no orders on any nominal
// dimension) over domains with the given cardinalities.
func EmptyPreference(cardinalities ...int) (*Preference, error) {
	dims := make([]*Implicit, len(cardinalities))
	for i, c := range cardinalities {
		ip, err := NewImplicit(c)
		if err != nil {
			return nil, err
		}
		dims[i] = ip
	}
	return NewPreference(dims...)
}

// NomDims returns the number of nominal dimensions m′.
func (p *Preference) NomDims() int { return len(p.dims) }

// Dim returns the implicit preference on nominal dimension i (0-based).
func (p *Preference) Dim(i int) *Implicit { return p.dims[i] }

// Order returns the order of the preference, max_i order(R̃i).
func (p *Preference) Order() int {
	x := 0
	for _, d := range p.dims {
		if d.Order() > x {
			x = d.Order()
		}
	}
	return x
}

// TotalPairs returns |P(R̃)| summed over dimensions.
func (p *Preference) TotalPairs() int {
	n := 0
	for _, d := range p.dims {
		x, k := d.Order(), d.Cardinality()
		n += x*k - (x*(x+1))/2
	}
	return n
}

// Refines reports whether p refines the template t dimension-wise (Property 1).
func (p *Preference) Refines(t *Preference) bool {
	if t == nil {
		return true
	}
	if len(p.dims) != len(t.dims) {
		return false
	}
	for i, d := range p.dims {
		if !d.Refines(t.dims[i]) {
			return false
		}
	}
	return true
}

// ConflictFree reports whether p and q are conflict-free on every dimension
// (Definition 1 lifted dimension-wise).
func (p *Preference) ConflictFree(q *Preference) bool {
	if q == nil {
		return true
	}
	if len(p.dims) != len(q.dims) {
		return false
	}
	for i, d := range p.dims {
		if !d.PartialOrder().ConflictFree(q.dims[i].PartialOrder()) {
			return false
		}
	}
	return true
}

// Equal reports dimension-wise equality.
func (p *Preference) Equal(q *Preference) bool {
	if q == nil {
		return false
	}
	if len(p.dims) != len(q.dims) {
		return false
	}
	for i, d := range p.dims {
		if !d.Equal(q.dims[i]) {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (p *Preference) Clone() *Preference {
	dims := make([]*Implicit, len(p.dims))
	for i, d := range p.dims {
		dims[i] = d.Clone()
	}
	return &Preference{dims: dims}
}

// WithDim returns a copy of p whose dimension i is replaced by ip. It is the
// substitution used when forming the component preferences of Theorem 2.
func (p *Preference) WithDim(i int, ip *Implicit) (*Preference, error) {
	if i < 0 || i >= len(p.dims) {
		return nil, fmt.Errorf("order: dimension %d out of range [0,%d)", i, len(p.dims))
	}
	if ip == nil {
		return nil, fmt.Errorf("order: replacement preference for dimension %d is nil", i)
	}
	if ip.Cardinality() != p.dims[i].Cardinality() {
		return nil, fmt.Errorf("order: dimension %d cardinality mismatch: %d vs %d",
			i, ip.Cardinality(), p.dims[i].Cardinality())
	}
	out := p.Clone()
	out.dims[i] = ip.Clone()
	return out, nil
}

// Meet returns the coarsest preference that every input refines: on each
// dimension, the longest common prefix of the inputs' canonical entry lists.
// Every input satisfies Refines(meet), so dominance under the meet implies
// dominance under each input — the soundness fact the batch kernel's shared
// scan rests on. All inputs must agree on dimension count
// and per-dimension cardinality.
func Meet(prefs []*Preference) (*Preference, error) {
	if len(prefs) == 0 {
		return nil, fmt.Errorf("order: meet of zero preferences")
	}
	canon := make([]*Preference, len(prefs))
	for i, p := range prefs {
		if p == nil {
			return nil, fmt.Errorf("order: meet input %d is nil", i)
		}
		if p.NomDims() != prefs[0].NomDims() {
			return nil, fmt.Errorf("order: meet over mixed dimension counts: %d vs %d",
				p.NomDims(), prefs[0].NomDims())
		}
		canon[i] = p.Canonical()
	}
	base := canon[0]
	dims := make([]*Implicit, base.NomDims())
	for d := range dims {
		entries := base.Dim(d).Entries()
		n := len(entries)
		for _, p := range canon[1:] {
			ip := p.Dim(d)
			if ip.Cardinality() != base.Dim(d).Cardinality() {
				return nil, fmt.Errorf("order: meet dimension %d cardinality mismatch: %d vs %d",
					d, ip.Cardinality(), base.Dim(d).Cardinality())
			}
			other := ip.Entries()
			if len(other) < n {
				n = len(other)
			}
			for j := 0; j < n; j++ {
				if entries[j] != other[j] {
					n = j
					break
				}
			}
		}
		dims[d] = base.Dim(d).Prefix(n)
	}
	return NewPreference(dims...)
}

func (p *Preference) String() string {
	parts := make([]string, len(p.dims))
	for i, d := range p.dims {
		parts[i] = d.String()
	}
	return strings.Join(parts, "; ")
}
