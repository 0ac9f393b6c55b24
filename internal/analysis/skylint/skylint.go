// Package skylint assembles the repo's invariant analyzers into the suite
// that cmd/skylint (and CI) runs. Each analyzer machine-checks one design
// argument from DESIGN.md; its "Invariants and their checks" table maps each
// analyzer to the invariant it enforces.
package skylint

import (
	"fmt"
	"strings"

	"prefsky/internal/analysis/atomicfield"
	"prefsky/internal/analysis/ctxflow"
	"prefsky/internal/analysis/errcode"
	"prefsky/internal/analysis/framework"
	"prefsky/internal/analysis/snapshotpin"
	"prefsky/internal/analysis/sortban"
)

// Suite returns every skylint analyzer, in reporting order.
func Suite() []*framework.Analyzer {
	return []*framework.Analyzer{
		atomicfield.Analyzer,
		ctxflow.Analyzer,
		errcode.Analyzer,
		snapshotpin.Analyzer,
		sortban.Analyzer,
	}
}

// Select resolves a comma-separated list of analyzer names ("" selects the
// whole suite).
func Select(names string) ([]*framework.Analyzer, error) {
	all := Suite()
	if names == "" {
		return all, nil
	}
	byName := make(map[string]*framework.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*framework.Analyzer
	for _, name := range strings.Split(names, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, analyzerNames(all))
		}
		out = append(out, a)
	}
	return out, nil
}

func analyzerNames(all []*framework.Analyzer) string {
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return strings.Join(names, ", ")
}
