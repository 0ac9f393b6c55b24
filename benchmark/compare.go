package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// readRecords loads a JSON-lines file written with -out.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rec)
	}
	return out, sc.Err()
}

// side is one file's runs of one (workload, metric) pair.
type side struct {
	values      []float64
	med, q1, q3 float64
}

func newSide(recs []record, workload, metric string) side {
	var s side
	for _, rec := range recs {
		if m, ok := rec.Metrics[metric]; ok && rec.Workload == workload {
			s.values = append(s.values, m.Value)
		}
	}
	s.med = median(s.values)
	s.q1, s.q3 = quartiles(s.values)
	return s
}

func (s side) spread() float64 { return ratio(s.q3-s.q1, s.med) }

func (s side) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", s.med, s.q1, s.q3, len(s.values))
}

// compareFiles prints, for every workload and metric the two files share,
// each side's median and quartiles and the change's median over the
// parent's. End-to-end metrics get a verdict from their bound: regressed when
// the change's median is worse than the parent's by more than the bound,
// unresolved when either side's quartiles are further apart than the bound
// (the runs cannot tell), ok otherwise. Per-layer metrics have no bound and
// get no verdict.
func compareFiles(w io.Writer, parentPath, changePath string) error {
	parent, err := readRecords(parentPath)
	if err != nil {
		return err
	}
	change, err := readRecords(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-16s %-30s %-34s %-34s %-22s %s\n", "workload", "metric", "parent: median [q1, q3]", "change: median [q1, q3]", "change/parent", "verdict")
	for _, wl := range workloads {
		for _, defs := range [][]metricDef{endToEndMetrics, perLayerMetrics} {
			for _, d := range defs {
				a, b := newSide(parent, wl.name, d.Name), newSide(change, wl.name, d.Name)
				if len(a.values) == 0 || len(b.values) == 0 {
					continue
				}
				verdict := "-"
				if d.Bound > 0 {
					worse := ratio(b.med-a.med, a.med)
					if d.Better == "higher" {
						worse = -worse
					}
					switch {
					case a.spread() > d.Bound || b.spread() > d.Bound:
						verdict = fmt.Sprintf("unresolved (spread %.3f / %.3f > bound %.2f)", a.spread(), b.spread(), d.Bound)
					case worse > d.Bound:
						verdict = fmt.Sprintf("regressed (%.3f worse > bound %.2f)", worse, d.Bound)
					default:
						verdict = fmt.Sprintf("ok (bound %.2f)", d.Bound)
					}
				}
				fmt.Fprintf(w, "%-16s %-30s %-34s %-34s %-22s %s\n", wl.name, d.Name, a, b,
					fmt.Sprintf("%.4f (%.4g/%.4g)", ratio(b.med, a.med), b.med, a.med), verdict)
			}
		}
		for name, recs := range map[string][]record{"parent": parent, "change": change} {
			for _, rec := range recs {
				if rec.Workload == wl.name && (rec.Failed > 0 || !rec.Correct) {
					fmt.Fprintf(w, "%-16s %s seed %d: %d of %d requests failed, correct=%v\n", wl.name, name, rec.Seed, rec.Failed, rec.Attempted, rec.Correct)
				}
			}
		}
	}
	return nil
}
