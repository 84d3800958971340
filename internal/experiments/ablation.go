package experiments

import (
	"fmt"

	"cwnsim/internal/machine"
	"cwnsim/internal/report"
)

// The extension studies: the paper's conclusions sketch three CWN
// improvements (re-distribution, saturation control, commitment-aware
// load) and one caveat (CWN's edge may shrink at higher communication
// ratios). These suites measure each.

// AblationSpecs returns one run per strategy variant on a common
// configuration (default: fib on a 10×10 grid), isolating each proposed
// CWN improvement plus the baseline strategies.
func AblationSpecs(quick bool) []RunSpec {
	ts := Grid(10)
	wl := Fib(15)
	if quick {
		wl = Fib(11)
	}
	acwnSatOnly := ACWN(9, 2, 3, 40)
	acwnSatOnly.Redistribute = false
	acwnRedistOnly := ACWN(9, 2, 0, 40)
	acwnBoth := ACWN(9, 2, 3, 40)
	return []RunSpec{
		{Label: "CWN (paper)", Topo: ts, Workload: wl, Strategy: CWN(9, 2)},
		{Label: "ACWN saturation only", Topo: ts, Workload: wl, Strategy: acwnSatOnly},
		{Label: "ACWN redistribution only", Topo: ts, Workload: wl, Strategy: acwnRedistOnly},
		{Label: "ACWN both", Topo: ts, Workload: wl, Strategy: acwnBoth},
		{Label: "CWN + commitment-aware load", Topo: ts, Workload: wl, Strategy: CWN(9, 2), LoadMetric: "queue+pending"},
		{Label: "GM (paper)", Topo: ts, Workload: wl, Strategy: GM(1, 2, 20)},
		{Label: "Diffusion", Topo: ts, Workload: wl, Strategy: StrategySpec{Kind: "diffusion", Interval: 20}},
		{Label: "WorkSteal", Topo: ts, Workload: wl, Strategy: StrategySpec{Kind: "worksteal", Interval: 20, Threshold: 1}},
		{Label: "RandomWalk(3)", Topo: ts, Workload: wl, Strategy: StrategySpec{Kind: "randomwalk", Steps: 3}},
		{Label: "RoundRobin", Topo: ts, Workload: wl, Strategy: StrategySpec{Kind: "roundrobin"}},
		{Label: "Local (no balancing)", Topo: ts, Workload: wl, Strategy: StrategySpec{Kind: "local"}},
		{Label: "Ideal (perfect info)", Topo: ts, Workload: wl, Strategy: StrategySpec{Kind: "ideal"}},
	}
}

// CommRatioSpecs sweeps the communication:computation ratio (goal and
// response hop time against the fixed grain of 10) for both schemes —
// the paper's closing caveat that CWN "may lose some of its edge" when
// communication is costlier.
func CommRatioSpecs(quick bool) []RunSpec {
	ts := Grid(10)
	wl := Fib(15)
	if quick {
		wl = Fib(11)
	}
	hopTimes := []int64{1, 2, 5, 10, 20}
	var specs []RunSpec
	for _, ht := range hopTimes {
		specs = append(specs,
			RunSpec{
				Label: fmt.Sprintf("CWN hop=%d", ht), Topo: ts, Workload: wl,
				Strategy: PaperCWNFor(ts), GoalHopTime: ht, RespHopTime: ht,
			},
			RunSpec{
				Label: fmt.Sprintf("GM hop=%d", ht), Topo: ts, Workload: wl,
				Strategy: PaperGMFor(ts), GoalHopTime: ht, RespHopTime: ht,
			},
		)
	}
	return specs
}

// ImbalanceSpecs dials computation-tree imbalance from dc-like (0.5) to
// caterpillar-like (0.95) at fixed size, probing the paper's premise
// that the schemes must cope with unpredictable structure.
func ImbalanceSpecs(quick bool) []RunSpec {
	goals := 2001
	if quick {
		goals = 801
	}
	ts := Grid(8)
	var specs []RunSpec
	for _, frac := range []float64{0.5, 0.65, 0.8, 0.9, 0.95} {
		wl := WorkloadSpec{Kind: "imbal", N: goals, Frac: frac}
		specs = append(specs,
			RunSpec{Topo: ts, Workload: wl, Strategy: PaperCWNFor(ts)},
			RunSpec{Topo: ts, Workload: wl, Strategy: PaperGMFor(ts)},
		)
	}
	return specs
}

// DiameterStudySpecs tests the paper's conjecture that CWN's advantage
// grows with network diameter ("the superior performance of CWN on the
// grids leads us to conjecture that it performs better than the GM on
// large systems, which of course tend to have larger diameters"): the
// machine size is held at 64 PEs while the diameter varies from 1
// (complete graph) to 32 (ring).
func DiameterStudySpecs(quick bool) []RunSpec {
	wl := Fib(15)
	if quick {
		wl = Fib(12)
	}
	topos := []TopoSpec{
		{Kind: "complete", N: 64},                 // diameter 1
		{Kind: "torus3d", Rows: 4, Cols: 4, Z: 4}, // diameter 6
		{Kind: "hypercube", Dim: 6},               // diameter 6
		Torus(8),                                  // diameter 8
		{Kind: "chordal", N: 64, Chord: 8},        // diameter ~8
		Grid(8),                                   // diameter 14
		{Kind: "ring", N: 64},                     // diameter 32
	}
	var specs []RunSpec
	for _, ts := range topos {
		// Radius ~ diameter keeps CWN able to reach its horizon; GM uses
		// the grid watermarks throughout.
		radius := ts.Build().Diameter()
		if radius < 2 {
			radius = 2
		}
		if radius > 9 {
			radius = 9
		}
		specs = append(specs,
			RunSpec{Topo: ts, Workload: wl, Strategy: CWN(radius, 1)},
			RunSpec{Topo: ts, Workload: wl, Strategy: GM(1, 2, 20)},
		)
	}
	return specs
}

// DiameterStudyTable summarizes the diameter study: one row per
// topology with both speedups and the ratio.
func DiameterStudyTable(results []*Result) *report.Table {
	tb := report.NewTable("CWN/GM speedup ratio vs network diameter (64 PEs)",
		"topology", "diameter", "CWN speedup", "GM speedup", "ratio")
	for i := 0; i+1 < len(results); i += 2 {
		cwn, gm := results[i], results[i+1]
		tb.AddRow(
			cwn.Spec.Topo.Label(),
			cwn.Spec.Topo.Build().Diameter(),
			cwn.Speedup(),
			gm.Speedup(),
			cwn.Speedup()/gm.Speedup(),
		)
	}
	return tb
}

// ResultTable renders a generic per-run comparison table: utilization,
// speedup (absolute and as a share of the workload's parallelism
// ceiling), balance, travel distances and traffic.
func ResultTable(title string, results []*Result) *report.Table {
	tb := report.NewTable(title,
		"run", "PEs", "goals", "util%", "speedup", "of-bound%", "balance", "avg hops", "goal msgs", "makespan", "maxChan%")
	for _, r := range results {
		tb.AddRow(
			r.Spec.Name(),
			r.Stats.P,
			r.Goals,
			r.UtilizationPercent(),
			r.Speedup(),
			100*r.OfBound(),
			r.BalanceIndex(),
			r.AvgGoalHops(),
			r.Stats.MsgCounts[machine.MsgGoal],
			int64(r.Makespan),
			100*r.Stats.MaxChannelUtilization(),
		)
	}
	return tb
}
