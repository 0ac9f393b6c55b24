// Package nursery regenerates the UCI Nursery data set used in §5.2.
//
// Nursery is the complete cartesian product of its eight attribute domains
// (3·5·4·4·3·2·3·3 = 12,960 instances), so the data set is reproduced exactly
// by deterministic enumeration — no download required. Following the paper,
// six attributes are totally ordered by their listed (most- to
// least-desirable) value order and two are nominal: form of the family and
// number of children, both of cardinality 4.
package nursery

import (
	"prefsky/internal/data"
	"prefsky/internal/order"
)

// Attribute value lists in UCI order; for the ordinal attributes the listed
// order is the preference order (first value best).
var (
	parents = []string{"usual", "pretentious", "great_pret"}
	hasNurs = []string{"proper", "less_proper", "improper", "critical", "very_crit"}
	form    = []string{"complete", "completed", "incomplete", "foster"}
	childs  = []string{"1", "2", "3", "more"}
	housing = []string{"convenient", "less_conv", "critical"}
	finance = []string{"convenient", "inconv"}
	social  = []string{"nonprob", "slightly_prob", "problematic"}
	health  = []string{"recommended", "priority", "not_recom"}
)

// N is the number of instances in the data set.
const N = 3 * 5 * 4 * 4 * 3 * 2 * 3 * 3

// Schema returns the Nursery schema: 6 ordinal attributes stored as numeric
// ranks (smaller is better) and the 2 nominal attributes of §5.2.
func Schema() (*data.Schema, error) {
	formDom, err := order.NewDomain("form", form)
	if err != nil {
		return nil, err
	}
	childrenDom, err := order.NewDomain("children", childs)
	if err != nil {
		return nil, err
	}
	return data.NewSchema(
		[]data.NumericAttr{
			{Name: "parents"},
			{Name: "has_nurs"},
			{Name: "housing"},
			{Name: "finance"},
			{Name: "social"},
			{Name: "health"},
		},
		[]*order.Domain{formDom, childrenDom},
	)
}

// Dataset enumerates all 12,960 instances in UCI row order (attributes vary
// rightmost-fastest, matching the original file's layout).
func Dataset() (*data.Dataset, error) {
	schema, err := Schema()
	if err != nil {
		return nil, err
	}
	points := make([]data.Point, 0, N)
	for p := range parents {
		for h := range hasNurs {
			for f := range form {
				for c := range childs {
					for ho := range housing {
						for fi := range finance {
							for so := range social {
								for he := range health {
									points = append(points, data.Point{
										Num: []float64{
											float64(p), float64(h), float64(ho),
											float64(fi), float64(so), float64(he),
										},
										Nom: []order.Value{order.Value(f), order.Value(c)},
									})
								}
							}
						}
					}
				}
			}
		}
	}
	return data.New(schema, points)
}

// MustDataset is Dataset that panics on error.
func MustDataset() *data.Dataset {
	ds, err := Dataset()
	if err != nil {
		panic(err)
	}
	return ds
}
