// Compare: race every load-distribution strategy in the library on the
// same workload and machine — the paper's CWN-versus-Gradient-Model
// comparison extended with the future-work ACWN and the classic
// baselines.
//
// Run with: go run ./examples/compare
package main

import (
	"fmt"
	"os"

	"cwnsim/internal/experiments"
	"cwnsim/internal/machine"
	"cwnsim/internal/report"
)

func main() {
	topo := experiments.Grid(10)
	wl := experiments.Fib(15)

	specs := []experiments.RunSpec{
		{Label: "CWN (paper grid params)", Topo: topo, Workload: wl, Strategy: experiments.CWN(9, 2)},
		{Label: "Gradient Model (paper)", Topo: topo, Workload: wl, Strategy: experiments.GM(1, 2, 20)},
		{Label: "ACWN (future work)", Topo: topo, Workload: wl, Strategy: experiments.ACWN(9, 2, 3, 40)},
		{Label: "Work stealing", Topo: topo, Workload: wl, Strategy: experiments.StrategySpec{Kind: "worksteal", Interval: 20, Threshold: 1}},
		{Label: "Random walk (3 hops)", Topo: topo, Workload: wl, Strategy: experiments.StrategySpec{Kind: "randomwalk", Steps: 3}},
		{Label: "Round robin", Topo: topo, Workload: wl, Strategy: experiments.StrategySpec{Kind: "roundrobin"}},
		{Label: "No balancing", Topo: topo, Workload: wl, Strategy: experiments.StrategySpec{Kind: "local"}},
	}

	// Simulations are independent; run them on all cores.
	results, err := experiments.RunAll(specs, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}

	tb := report.NewTable(
		fmt.Sprintf("%s on %s (%d PEs)", wl.Label(), topo.Label(), topo.PEs()),
		"strategy", "util%", "speedup", "avg hops", "goal msgs", "makespan")
	for _, r := range results {
		tb.AddRow(r.Spec.Label, r.UtilizationPercent(), r.Speedup(), r.AvgGoalHops(),
			r.Stats.MsgCounts[machine.MsgGoal], int64(r.Makespan))
	}
	tb.Render(os.Stdout)

	best := results[0]
	for _, r := range results {
		if r.Speedup() > best.Speedup() {
			best = r
		}
	}
	fmt.Printf("\nwinner: %s with speedup %.1f\n", best.Spec.Label, best.Speedup())
}
