// Command lbsim runs a single load-balancing simulation and reports the
// statistics ORACLE reported: utilization (overall, per PE, over time),
// completion time, message distance distributions, channel utilization,
// and the computed program result.
//
// Examples:
//
//	lbsim -topo grid:10x10 -workload fib:15 -strategy cwn:9:2
//	lbsim -topo dlm:10x10:5 -workload dc:4181 -strategy gm:1:1:20 -heatmap
//	lbsim -topo hypercube:7 -workload fib:18 -strategy cwn:5:1 -sample 50 -chart
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"cwnsim/internal/experiments"
	"cwnsim/internal/metrics"
	"cwnsim/internal/report"
)

func main() {
	var (
		topoArg  = flag.String("topo", "grid:10x10", "topology: grid:RxC | torus:RxC | dlm:RxC:SPAN | hypercube:D | ring:N | complete:N | star:N | bus:N | single")
		wlArg    = flag.String("workload", "fib:15", "workload: fib:M | dc:X | dc:M:N | binary:D | skew:N | chain:N | random:N:SEED")
		stratArg = flag.String("strategy", "cwn:9:2", "strategy: cwn:R:H | gm:LOW:HIGH:IVL | acwn:R:H:SAT:IVL | local | randomwalk:K | roundrobin | worksteal:IVL:T")
		arrArg   = flag.String("arrival", "single", "arrival process: single | interval:GAP:JOBS | poisson:MEANGAP:JOBS | burst:SIZE:GAP:BURSTS")
		warmup   = flag.Int64("warmup", 0, "exclude jobs injected before this virtual time from steady-state latency stats")
		seed     = flag.Int64("seed", 1, "simulation seed")
		sample   = flag.Int64("sample", 0, "utilization sampling interval (0 = off)")
		chart    = flag.Bool("chart", false, "render the utilization-over-time chart (needs -sample)")
		heatmap  = flag.Bool("heatmap", false, "render the per-PE utilization heat map (grid-shaped topologies)")
		hops     = flag.Bool("hops", false, "print the goal hop-distance distribution")
		loadMet  = flag.String("load", "queue", "load metric: queue | queue+pending")
		hopTime  = flag.Int64("hoptime", 0, "override goal/response hop time (0 = default 2)")
		monitor  = flag.Int("monitor", 0, "render every Nth per-PE utilization frame (ORACLE's load monitor; needs -sample)")
	)
	flag.Parse()
	if *chart && *sample <= 0 {
		fail(errors.New("-chart needs -sample > 0"))
	}

	topo, err := experiments.ParseTopo(*topoArg)
	fail(err)
	wl, err := experiments.ParseWorkload(*wlArg)
	fail(err)
	strat, err := experiments.ParseStrategy(*stratArg)
	fail(err)
	arr, err := experiments.ParseArrival(*arrArg)
	fail(err)

	spec := experiments.RunSpec{
		Topo:           topo,
		Workload:       wl,
		Strategy:       strat,
		Arrival:        arr,
		Seed:           *seed,
		Warmup:         *warmup,
		SampleInterval: *sample,
		MonitorPE:      *monitor > 0,
		LoadMetric:     *loadMet,
		GoalHopTime:    *hopTime,
		RespHopTime:    *hopTime,
	}
	res, err := spec.ExecuteErr()
	fail(err)
	st := res.Stats

	fmt.Println(st.String())
	fmt.Printf("  wall time: %v\n", res.Wall)

	if *hops {
		fmt.Println()
		tb := report.NewTable("goal hop distribution", "hops", "count")
		for h := 0; h <= st.GoalHops.Max(); h++ {
			tb.AddRow(h, st.GoalHops.Count(h))
		}
		tb.Render(os.Stdout)
	}

	if *chart {
		if st.Timeline.Len() == 0 {
			fmt.Fprintln(os.Stderr, "lbsim: -chart: the run ended before its first sample")
		} else {
			fmt.Println()
			ch := report.NewChart(fmt.Sprintf("utilization over time: %s", spec.Name()), "time", "% PE utilization")
			ch.YMax = 100
			tl := st.Timeline
			tl.Label = strat.Label()
			ch.Add(&tl, '+')
			ch.Render(os.Stdout)
		}
	}

	if *monitor > 0 {
		if st.Monitor.Len() == 0 {
			fmt.Fprintln(os.Stderr, "lbsim: -monitor: the run ended before its first sample")
		} else {
			rows, cols := topo.Rows, topo.Cols
			if rows == 0 || cols == 0 {
				rows, cols = 1, st.P
			}
			fmt.Printf("\nload monitor (every %d frames):\n", *monitor)
			st.Monitor.Render(os.Stdout, rows, cols, *monitor)
		}
	}

	if *heatmap {
		rows, cols := topo.Rows, topo.Cols
		if rows == 0 || cols == 0 {
			// Non-rectangular topology: lay PEs out in one row.
			rows, cols = 1, st.P
		}
		hm := report.NewHeatmap(fmt.Sprintf("per-PE utilization: %s", spec.Name()), rows, cols)
		for i := 0; i < st.P; i++ {
			hm.Values[i] = st.PEUtilization(i)
		}
		fmt.Println()
		hm.Render(os.Stdout)
		var s metrics.Summary
		for i := 0; i < st.P; i++ {
			s.Add(st.PEUtilization(i))
		}
		fmt.Printf("  per-PE utilization: %s\n", s.String())
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(2)
	}
}
