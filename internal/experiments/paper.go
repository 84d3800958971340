package experiments

import (
	"fmt"

	"cwnsim/internal/metrics"
	"cwnsim/internal/report"
	"cwnsim/internal/workload"
)

// PaperGrids returns the five grid sizes of the comparison: 25, 64, 100,
// 256 and 400 PEs.
func PaperGrids() []TopoSpec {
	return []TopoSpec{Grid(5), Grid(8), Grid(10), Grid(16), Grid(20)}
}

// PaperDLMs returns the five double-lattice-meshes, with the bus spans
// shown in the paper's plot captions (span 5 where the side divides by
// 5, span 4 for the 8×8 and 16×16).
func PaperDLMs() []TopoSpec {
	return []TopoSpec{DLM(5, 5), DLM(8, 4), DLM(10, 5), DLM(16, 4), DLM(20, 5)}
}

// PaperHypercubes returns the appendix hypercubes (dimensions 5-7; 32,
// 64 and 128 PEs).
func PaperHypercubes() []TopoSpec {
	return []TopoSpec{Hypercube(5), Hypercube(6), Hypercube(7)}
}

// PaperCWNFor returns CWN with Table 1's parameters for the topology
// class: radius 9 / horizon 2 on grids, radius 5 / horizon 1 on
// lattice-meshes. The appendix gives no hypercube parameters; radius 5 /
// horizon 1 (diameter-scale radius, as on the DLM) is used.
func PaperCWNFor(ts TopoSpec) StrategySpec {
	switch ts.Kind {
	case "dlm", "hypercube":
		return CWN(5, 1)
	default:
		return CWN(9, 2)
	}
}

// PaperGMFor returns the Gradient Model with Table 1's parameters:
// low 1 / high 2 / interval 20 on grids (and hypercubes), low 1 / high 1
// / interval 20 on lattice-meshes.
func PaperGMFor(ts TopoSpec) StrategySpec {
	if ts.Kind == "dlm" {
		return GM(1, 1, 20)
	}
	return GM(1, 2, 20)
}

// PaperWorkloads returns the six problem sizes for a program kind
// ("fib" or "dc"). In quick mode only the four smallest are returned
// (up to 753 goals), which keeps tests and benchmarks fast.
func PaperWorkloads(kind string, quick bool) []WorkloadSpec {
	var out []WorkloadSpec
	switch kind {
	case "fib":
		for _, m := range workload.PaperFibSizes {
			out = append(out, Fib(m))
		}
	case "dc":
		for _, x := range workload.PaperDCSizes {
			out = append(out, DC(x))
		}
	default:
		panic(fmt.Sprintf("experiments: unknown program kind %q", kind))
	}
	if quick {
		out = out[:4]
	}
	return out
}

// SpeedupSuite returns the full comparison behind Table 2: 2 programs ×
// 6 sizes × 10 topologies × 2 strategies = 240 runs (2×4×6×2 = 96 in
// quick mode, which also drops the two largest machines).
func SpeedupSuite(quick bool) []RunSpec {
	topos := append(PaperGrids(), PaperDLMs()...)
	var specs []RunSpec
	for _, prog := range []string{"dc", "fib"} {
		for _, wl := range PaperWorkloads(prog, quick) {
			for _, ts := range topos {
				if quick && ts.PEs() > 100 {
					continue
				}
				specs = append(specs,
					RunSpec{Topo: ts, Workload: wl, Strategy: PaperCWNFor(ts)},
					RunSpec{Topo: ts, Workload: wl, Strategy: PaperGMFor(ts)},
				)
			}
		}
	}
	return specs
}

// SpeedupTable renders Table 2 ("Speedup of CWN over GM"): one row per
// program size, one column per topology, each cell the ratio of CWN
// speedup to GM speedup for that configuration.
func SpeedupTable(results []*Result) *report.Table {
	idx := Index(results)
	var topos []TopoSpec
	seen := map[string]bool{}
	for _, r := range results {
		if !seen[r.Spec.Topo.Label()] {
			seen[r.Spec.Topo.Label()] = true
			topos = append(topos, r.Spec.Topo)
		}
	}
	headers := []string{"workload"}
	for _, ts := range topos {
		headers = append(headers, ts.Label())
	}
	tb := report.NewTable("Speedup of CWN over GM (Table 2)", headers...)

	var workloads []WorkloadSpec
	seenW := map[string]bool{}
	for _, r := range results {
		if !seenW[r.Spec.Workload.Label()] {
			seenW[r.Spec.Workload.Label()] = true
			workloads = append(workloads, r.Spec.Workload)
		}
	}
	for _, wl := range workloads {
		row := []any{wl.Label()}
		for _, ts := range topos {
			cwn := idx.Get(wl, ts, "cwn")
			gm := idx.Get(wl, ts, "gm")
			if cwn == nil || gm == nil {
				row = append(row, "-")
				continue
			}
			row = append(row, metrics.Ratio(cwn.Speedup(), gm.Speedup()))
		}
		tb.AddRow(row...)
	}
	return tb
}

// SpeedupSummary condenses a Table 2 result set into the paper's
// headline claims: how many pairings CWN wins, how many by more than
// 10%, and the largest ratio observed.
type SpeedupSummary struct {
	Pairs       int
	CWNWins     int
	Significant int // wins by more than 10%
	MaxRatio    float64
	MinRatio    float64
	GridMean    float64
	DLMMean     float64
}

// Summarize computes a SpeedupSummary from Table 2 results.
func Summarize(results []*Result) SpeedupSummary {
	idx := Index(results)
	s := SpeedupSummary{MinRatio: 1e18}
	var gridSum, dlmSum float64
	var gridN, dlmN int
	for _, r := range results {
		if r.Spec.Strategy.Kind != "cwn" {
			continue
		}
		gm := idx.Get(r.Spec.Workload, r.Spec.Topo, "gm")
		if gm == nil {
			continue
		}
		ratio := metrics.Ratio(r.Speedup(), gm.Speedup())
		s.Pairs++
		if ratio > 1 {
			s.CWNWins++
		}
		if ratio > 1.1 {
			s.Significant++
		}
		if ratio > s.MaxRatio {
			s.MaxRatio = ratio
		}
		if ratio < s.MinRatio {
			s.MinRatio = ratio
		}
		if r.Spec.Topo.Kind == "dlm" {
			dlmSum += ratio
			dlmN++
		} else {
			gridSum += ratio
			gridN++
		}
	}
	if gridN > 0 {
		s.GridMean = gridSum / float64(gridN)
	}
	if dlmN > 0 {
		s.DLMMean = dlmSum / float64(dlmN)
	}
	if s.Pairs == 0 {
		s.MinRatio = 0
	}
	return s
}

// String renders the summary against the paper's claims.
func (s SpeedupSummary) String() string {
	return fmt.Sprintf(
		"pairs=%d cwnWins=%d (paper: 118/120) significant(>10%%)=%d (paper: 110) "+
			"ratio range [%.2f, %.2f] gridMean=%.2f dlmMean=%.2f (paper: grids up to ~3x, DLMs ~1.1-1.5x)",
		s.Pairs, s.CWNWins, s.Significant, s.MinRatio, s.MaxRatio, s.GridMean, s.DLMMean)
}

// UtilizationCurveSpecs returns the runs behind one of Plots 1-10 (and
// the appendix curves): the six problem sizes of one program on one
// topology under both strategies.
func UtilizationCurveSpecs(ts TopoSpec, prog string, quick bool) []RunSpec {
	var specs []RunSpec
	for _, wl := range PaperWorkloads(prog, quick) {
		specs = append(specs,
			RunSpec{Topo: ts, Workload: wl, Strategy: PaperCWNFor(ts)},
			RunSpec{Topo: ts, Workload: wl, Strategy: PaperGMFor(ts)},
		)
	}
	return specs
}

// UtilizationChart renders a Plot 1-10 analogue: average PE utilization
// (%) versus total goals, one line per strategy.
func UtilizationChart(title string, results []*Result) *report.Chart {
	series := map[string]*metrics.Series{}
	var order []string
	for _, r := range results {
		key := r.Spec.Strategy.ShortLabel()
		s, ok := series[key]
		if !ok {
			s = &metrics.Series{Label: r.Spec.Strategy.Label()}
			series[key] = s
			order = append(order, key)
		}
		s.Add(float64(r.Goals), r.UtilizationPercent())
	}
	ch := report.NewChart(title, "no. of goals", "% PE utilization")
	ch.YMax = 100
	marks := []rune{'+', 'o', '*', 'x'}
	for i, key := range order {
		ch.Add(series[key], marks[i%len(marks)])
	}
	return ch
}

// TimeSeriesSpecs returns the two runs behind one of Plots 11-16:
// utilization sampled over time for one workload on one topology under
// both strategies.
func TimeSeriesSpecs(ts TopoSpec, wl WorkloadSpec, sampleInterval int64) []RunSpec {
	return []RunSpec{
		{Topo: ts, Workload: wl, Strategy: PaperCWNFor(ts), SampleInterval: sampleInterval},
		{Topo: ts, Workload: wl, Strategy: PaperGMFor(ts), SampleInterval: sampleInterval},
	}
}

// CurveTable renders the data behind a utilization curve (Plots 1-10)
// in long form for external plotting: strategy, goals, util%.
func CurveTable(title string, results []*Result) *report.Table {
	tb := report.NewTable(title, "strategy", "goals", "util%", "speedup", "of-bound%")
	for _, r := range results {
		tb.AddRow(r.Spec.Strategy.ShortLabel(), r.Goals, r.UtilizationPercent(), r.Speedup(), 100*r.OfBound())
	}
	return tb
}

// TimeSeriesTable renders the data behind a time plot (Plots 11-16) in
// long form: strategy, time, util%.
func TimeSeriesTable(title string, results []*Result) *report.Table {
	tb := report.NewTable(title, "strategy", "time", "util%")
	for _, r := range results {
		for _, p := range r.Stats.Timeline.Points {
			tb.AddRow(r.Spec.Strategy.ShortLabel(), int64(p.T), p.V)
		}
	}
	return tb
}

// TimeSeriesChart renders a Plot 11-16 analogue from sampled runs.
func TimeSeriesChart(title string, results []*Result) *report.Chart {
	ch := report.NewChart(title, "time", "% PE utilization")
	ch.YMax = 100
	marks := []rune{'+', 'o', '*', 'x'}
	for i, r := range results {
		s := r.Stats.Timeline
		s.Label = r.Spec.Strategy.Label()
		ch.Add(&s, marks[i%len(marks)])
	}
	return ch
}

// HopDistributionSpecs returns the two runs behind Table 3: fib(18) on
// the 10×10 grid under both strategies. horizon selects the CWN horizon
// (the paper's Table 1 says 2, but its published histogram matches 1 —
// see EXPERIMENTS.md).
func HopDistributionSpecs(horizon int, quick bool) []RunSpec {
	wl := Fib(18)
	if quick {
		wl = Fib(13)
	}
	ts := Grid(10)
	return []RunSpec{
		{Topo: ts, Workload: wl, Strategy: CWN(9, horizon)},
		{Topo: ts, Workload: wl, Strategy: GM(1, 2, 20)},
	}
}

// HopDistributionTable renders Table 3: the distribution of distances
// travelled by goal messages, one column per hop count, one row per
// strategy, with the mean in the last column.
func HopDistributionTable(results []*Result) *report.Table {
	maxHop := 0
	for _, r := range results {
		if m := r.Stats.GoalHops.Max(); m > maxHop {
			maxHop = m
		}
	}
	headers := []string{"strategy"}
	for h := 0; h <= maxHop; h++ {
		headers = append(headers, fmt.Sprint(h))
	}
	headers = append(headers, "average")
	tb := report.NewTable("Distribution of message distance (Table 3)", headers...)
	for _, r := range results {
		row := []any{r.Spec.Strategy.ShortLabel()}
		for h := 0; h <= maxHop; h++ {
			row = append(row, r.Stats.GoalHops.Count(h))
		}
		row = append(row, r.Stats.GoalHops.Mean())
		tb.AddRow(row...)
	}
	return tb
}
