package experiments

import (
	"fmt"

	"cwnsim/internal/metrics"
	"cwnsim/internal/report"
)

// The paper ran each configuration once (240 runs already cost 15
// minutes to 3 hours each on the VAX-750); a modern reproduction can
// afford replication. Replicate and Aggregate provide seed-replicated
// runs with mean/spread reporting, used by cmd/sweep -repeats.

// Replicate returns n copies of the spec with seeds base, base+1, …
// (base is the spec's seed, or 1 if unset).
func (rs RunSpec) Replicate(n int) []RunSpec {
	if n < 1 {
		panic("experiments: Replicate needs n >= 1")
	}
	base := rs.Seed
	if base == 0 {
		base = 1
	}
	out := make([]RunSpec, n)
	for i := range out {
		out[i] = rs
		out[i].Seed = base + int64(i)
	}
	return out
}

// Aggregate summarizes replicated results.
type Aggregate struct {
	Spec     RunSpec // representative (first) spec
	Util     metrics.Summary
	Speedup  metrics.Summary
	AvgHops  metrics.Summary
	Makespan metrics.Summary
}

// AggregateResults folds replicated results into summaries.
func AggregateResults(results []*Result) Aggregate {
	if len(results) == 0 {
		panic("experiments: AggregateResults on empty slice")
	}
	agg := Aggregate{Spec: results[0].Spec}
	for _, r := range results {
		agg.Util.Add(r.Util)
		agg.Speedup.Add(r.Speedup)
		agg.AvgHops.Add(r.AvgHops)
		agg.Makespan.Add(float64(r.Makespan))
	}
	return agg
}

// String renders "mean ± sd" for the key metrics.
func (a Aggregate) String() string {
	return fmt.Sprintf("%s: util %.1f±%.1f%% speedup %.2f±%.2f (n=%d)",
		a.Spec.Name(), a.Util.Mean(), a.Util.Stddev(), a.Speedup.Mean(), a.Speedup.Stddev(), a.Util.N())
}

// RunReplicatedResults executes each spec n times with consecutive
// seeds and returns one aggregate per input spec, preserving order,
// with the individual runs: results holds n consecutive entries per
// input spec (seeds base..base+n-1), so spec i's first-seed run is
// results[i*n]. The aggregate table and any per-run reporting (e.g.
// cmd/sweep's scenario recovery table) share one simulation pass.
func RunReplicatedResults(specs []RunSpec, n, workers int) ([]Aggregate, []*Result, error) {
	var flat []RunSpec
	for _, s := range specs {
		flat = append(flat, s.Replicate(n)...)
	}
	results, err := RunAll(flat, workers)
	if err != nil {
		return nil, nil, err
	}
	out := make([]Aggregate, len(specs))
	for i := range specs {
		out[i] = AggregateResults(results[i*n : (i+1)*n])
	}
	return out, results, nil
}

// AggregateTable renders replicated outcomes with their spreads.
func AggregateTable(title string, aggs []Aggregate) *report.Table {
	tb := report.NewTable(title,
		"run", "n", "util% mean", "util% sd", "speedup mean", "speedup sd", "hops mean", "makespan mean")
	for _, a := range aggs {
		tb.AddRow(
			a.Spec.Name(),
			a.Util.N(),
			a.Util.Mean(), a.Util.Stddev(),
			a.Speedup.Mean(), a.Speedup.Stddev(),
			a.AvgHops.Mean(),
			a.Makespan.Mean(),
		)
	}
	return tb
}
