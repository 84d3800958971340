package experiments

import (
	"sort"

	"cwnsim/internal/report"
)

// The paper, Section 3.1: "In the interest of fairness, the parameters
// must be chosen in such a way each scheme is working at its best. We
// chose a few sample points in the space of planned experiments, and ran
// the simulations for various combination of parameters. The winning
// combinations were used for the comparison experiments."
//
// OptimizeCWN and OptimizeGM reproduce that process: evaluate every
// parameter combination at the sample points and rank by mean speedup.

// OptOutcome is one parameter combination's aggregate score.
type OptOutcome struct {
	Strategy    StrategySpec
	MeanSpeedup float64
	Runs        int
}

// SamplePoints returns the optimization sample points for a topology
// class: a medium and a large problem on a small and a medium machine
// drawn from the planned experiment space.
func SamplePoints(topos []TopoSpec, quick bool) (ts []TopoSpec, wls []WorkloadSpec) {
	if len(topos) < 3 {
		panic("experiments: need at least 3 topology sizes for sample points")
	}
	ts = []TopoSpec{topos[0], topos[2]} // 25 and 100 PEs
	wls = []WorkloadSpec{Fib(11), DC(377)}
	if !quick {
		wls = append(wls, Fib(15))
	}
	return ts, wls
}

// OptimizeCWN scores every (radius, horizon) combination over the
// sample points and returns outcomes sorted best-first.
func OptimizeCWN(topos []TopoSpec, wls []WorkloadSpec, radii, horizons []int, workers int) ([]OptOutcome, error) {
	var cands []StrategySpec
	for _, r := range radii {
		for _, h := range horizons {
			if h <= r {
				cands = append(cands, CWN(r, h))
			}
		}
	}
	return scoreCandidates(cands, topos, wls, workers)
}

// OptimizeGM scores every (low, high, interval) combination over the
// sample points and returns outcomes sorted best-first.
func OptimizeGM(topos []TopoSpec, wls []WorkloadSpec, lows, highs []int, intervals []int64, workers int) ([]OptOutcome, error) {
	var cands []StrategySpec
	for _, lo := range lows {
		for _, hi := range highs {
			if hi < lo {
				continue
			}
			for _, iv := range intervals {
				cands = append(cands, GM(lo, hi, iv))
			}
		}
	}
	return scoreCandidates(cands, topos, wls, workers)
}

func scoreCandidates(cands []StrategySpec, topos []TopoSpec, wls []WorkloadSpec, workers int) ([]OptOutcome, error) {
	var specs []RunSpec
	for _, c := range cands {
		for _, ts := range topos {
			for _, wl := range wls {
				specs = append(specs, RunSpec{Topo: ts, Workload: wl, Strategy: c})
			}
		}
	}
	results, err := RunAll(specs, workers)
	if err != nil {
		return nil, err
	}
	perCand := len(topos) * len(wls)
	out := make([]OptOutcome, len(cands))
	for i, c := range cands {
		var sum float64
		for j := 0; j < perCand; j++ {
			sum += results[i*perCand+j].Speedup()
		}
		out[i] = OptOutcome{Strategy: c, MeanSpeedup: sum / float64(perCand), Runs: perCand}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].MeanSpeedup > out[b].MeanSpeedup })
	return out, nil
}

// OptimizationTable renders the Table 1 analogue: the best parameters
// found per topology class alongside the paper's selections.
func OptimizationTable(gridCWN, dlmCWN, gridGM, dlmGM OptOutcome) *report.Table {
	tb := report.NewTable("Selected parameters (Table 1)",
		"parameter", "grids (found)", "grids (paper)", "lattice-meshes (found)", "lattice-meshes (paper)")
	tb.AddRow("CWN radius", gridCWN.Strategy.Radius, 9, dlmCWN.Strategy.Radius, 5)
	tb.AddRow("CWN horizon", gridCWN.Strategy.Horizon, 2, dlmCWN.Strategy.Horizon, 1)
	tb.AddRow("GM high-water-mark", gridGM.Strategy.High, 2, dlmGM.Strategy.High, 1)
	tb.AddRow("GM low-water-mark", gridGM.Strategy.Low, 1, dlmGM.Strategy.Low, 1)
	tb.AddRow("GM interval", gridGM.Strategy.Interval, 20, dlmGM.Strategy.Interval, 20)
	return tb
}

// DefaultCWNGridSearch returns the parameter grids swept for CWN.
func DefaultCWNGridSearch(quick bool) (radii, horizons []int) {
	if quick {
		return []int{3, 5, 9}, []int{1, 2}
	}
	return []int{3, 5, 7, 9, 11}, []int{0, 1, 2, 3}
}

// DefaultGMGridSearch returns the parameter grids swept for GM.
func DefaultGMGridSearch(quick bool) (lows, highs []int, intervals []int64) {
	if quick {
		return []int{1}, []int{1, 2}, []int64{20}
	}
	return []int{1, 2}, []int{1, 2, 3, 4}, []int64{10, 20, 40}
}
