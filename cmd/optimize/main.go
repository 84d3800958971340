// Command optimize reruns the paper's Section 3.1 parameter-optimization
// experiments in isolation: it sweeps the CWN (radius, horizon) and
// Gradient Model (low, high, interval) parameter spaces at sample points
// of the planned experiments and ranks every combination by mean speedup
// — the process that produced the paper's Table 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"cwnsim/internal/experiments"
	"cwnsim/internal/report"
)

func main() {
	var (
		family  = flag.String("family", "grid", "topology family to optimize for: grid | dlm")
		scheme  = flag.String("scheme", "both", "which scheme to sweep: cwn | gm | both")
		quick   = flag.Bool("quick", false, "smaller sweep and sample points")
		workers = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		top     = flag.Int("top", 10, "how many candidates to print")
	)
	flag.Parse()

	var topos []experiments.TopoSpec
	switch *family {
	case "grid":
		topos = experiments.PaperGrids()
	case "dlm":
		topos = experiments.PaperDLMs()
	default:
		fmt.Fprintf(os.Stderr, "optimize: unknown family %q\n", *family)
		os.Exit(2)
	}
	if *scheme != "cwn" && *scheme != "gm" && *scheme != "both" {
		fmt.Fprintf(os.Stderr, "optimize: unknown scheme %q\n", *scheme)
		os.Exit(2)
	}
	ts, wls := experiments.SamplePoints(topos, *quick)
	fmt.Printf("sample points: %d topologies x %d workloads\n\n", len(ts), len(wls))

	show := func(name string, out []experiments.OptOutcome) {
		tb := report.NewTable(fmt.Sprintf("%s candidates for %s (best first)", name, *family),
			"rank", "strategy", "mean speedup", "runs")
		for i, o := range out {
			if i >= *top {
				break
			}
			tb.AddRow(i+1, o.Strategy.Label(), o.MeanSpeedup, o.Runs)
		}
		tb.Render(os.Stdout)
		fmt.Println()
	}

	if *scheme == "cwn" || *scheme == "both" {
		radii, horizons := experiments.DefaultCWNGridSearch(*quick)
		out, err := experiments.OptimizeCWN(ts, wls, radii, horizons, *workers)
		fail(err)
		show("CWN", out)
	}
	if *scheme == "gm" || *scheme == "both" {
		lows, highs, ivs := experiments.DefaultGMGridSearch(*quick)
		out, err := experiments.OptimizeGM(ts, wls, lows, highs, ivs, *workers)
		fail(err)
		show("GM", out)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "optimize:", err)
		os.Exit(1)
	}
}
