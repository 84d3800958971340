package experiments

import "fmt"

// ResultSet indexes results by (workload, topology, strategy family) for
// the table formatters.
type ResultSet struct {
	byKey map[string]*Result
}

func key(w WorkloadSpec, t TopoSpec, stratKind, arrival string) string {
	return fmt.Sprintf("%s|%s|%s|%s", w.Label(), t.Label(), stratKind, arrival)
}

// Index builds a ResultSet. When several results share a key (e.g.
// repeated seeds) the last one wins. Results are indexed by arrival
// process too, so stream sweeps at several rates do not clobber each
// other. nil results (failed runs from RunAll) are skipped.
func Index(results []*Result) *ResultSet {
	rs := &ResultSet{byKey: make(map[string]*Result, len(results))}
	for _, r := range results {
		if r == nil {
			continue
		}
		rs.byKey[key(r.Spec.Workload, r.Spec.Topo, r.Spec.Strategy.Kind, r.Spec.Arrival.Label())] = r
	}
	return rs
}

// Get returns the single-job result for a configuration, or nil.
func (rs *ResultSet) Get(w WorkloadSpec, t TopoSpec, stratKind string) *Result {
	return rs.byKey[key(w, t, stratKind, SingleArrival().Label())]
}
