// Command paper regenerates every table and figure of Kale's ICPP 1988
// comparison study from fresh simulations:
//
//	table1       parameter-optimization runs (Table 1)
//	table2       the 240-run speedup comparison (Table 2)
//	table3       goal-message distance distributions (Table 3)
//	plots-dlm-dc utilization vs problem size, dc on the 5 DLMs (Plots 1-5)
//	plots-grid-dc  same on the 5 grids (Plots 6-10)
//	plots-fib    the Fibonacci curves the paper says mirror the dc plots
//	plots-time-dlm utilization vs time, DLM 10x10 (Plots 11-13)
//	plots-time-grid utilization vs time, grid 10x10 (Plots 14-16)
//	hypercube    the appendix hypercube studies (A-1..A-8)
//	ablation     the future-work extensions (ACWN et al.)
//	commratio    the communication-ratio caveat sweep
//	diameter     extension: CWN/GM ratio vs network diameter at 64 PEs
//	imbalance    extension: CWN/GM vs computation-tree skew
//	monitor      ORACLE's per-PE load display, frame by frame
//	all          everything above
//
// -quick shrinks problem and machine sizes for a fast smoke pass.
// -csv DIR additionally writes each table as CSV into DIR.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"cwnsim/internal/experiments"
	"cwnsim/internal/report"
)

var (
	quick   = flag.Bool("quick", false, "smaller problems and machines (fast smoke run)")
	workers = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	csvDir  = flag.String("csv", "", "directory to write CSV copies of the tables")
	expArg  = flag.String("exp", "all", "comma-separated experiments (see doc comment)")
)

func main() {
	flag.Parse()
	exps := []struct {
		name string
		run  func()
	}{
		{"table1", table1},
		{"table2", table2},
		{"table3", table3},
		{"plots-dlm-dc", func() { utilizationPlots(experiments.PaperDLMs(), "dc", 1) }},
		{"plots-grid-dc", func() { utilizationPlots(experiments.PaperGrids(), "dc", 6) }},
		{"plots-fib", func() {
			utilizationPlots(experiments.PaperDLMs(), "fib", 0)
			utilizationPlots(experiments.PaperGrids(), "fib", 0)
		}},
		{"plots-time-dlm", func() { timePlots(experiments.DLM(10, 5), []int{18, 15, 11}, 11) }},
		{"plots-time-grid", func() { timePlots(experiments.Grid(10), []int{18, 15, 9}, 14) }},
		{"hypercube", hypercube},
		{"ablation", ablation},
		{"commratio", commRatio},
		{"diameter", diameter},
		{"imbalance", imbalance},
		{"monitor", monitor},
	}
	known := []string{"all"}
	for _, e := range exps {
		known = append(known, e.name)
	}
	selected := map[string]bool{}
	for _, e := range strings.Split(*expArg, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(known, e) {
			fmt.Fprintf(os.Stderr, "paper: unknown experiment %q (known: %s)\n", e, strings.Join(known, ", "))
			os.Exit(2)
		}
		selected[e] = true
	}
	start := time.Now()
	for _, e := range exps {
		if !selected["all"] && !selected[e.name] {
			continue
		}
		fmt.Printf("==================== %s ====================\n", e.name)
		t0 := time.Now()
		e.run()
		fmt.Printf("-------------------- %s done in %v\n\n", e.name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// emit prints tb and, under -csv, also writes it there as file.
func emit(tb *report.Table, file string) {
	tb.Render(os.Stdout)
	fmt.Println()
	writeCSV(tb, file)
}

// writeCSV writes tb as CSV to file in the -csv directory; without -csv
// it does nothing. A failed write is reported and the run goes on.
func writeCSV(tb *report.Table, file string) {
	if *csvDir == "" {
		return
	}
	err := os.MkdirAll(*csvDir, 0o755)
	if err == nil {
		err = tb.WriteCSVFile(filepath.Join(*csvDir, file))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
	}
}

// table1 reruns the parameter-optimization experiments and prints the
// winners next to the paper's Table 1 selections.
func table1() {
	gridTs, gridWls := experiments.SamplePoints(experiments.PaperGrids(), *quick)
	dlmTs, dlmWls := experiments.SamplePoints(experiments.PaperDLMs(), *quick)
	radii, horizons := experiments.DefaultCWNGridSearch(*quick)
	lows, highs, ivs := experiments.DefaultGMGridSearch(*quick)

	gridCWN := mustOptimize(experiments.OptimizeCWN(gridTs, gridWls, radii, horizons, *workers))
	dlmCWN := mustOptimize(experiments.OptimizeCWN(dlmTs, dlmWls, radii, horizons, *workers))
	gridGM := mustOptimize(experiments.OptimizeGM(gridTs, gridWls, lows, highs, ivs, *workers))
	dlmGM := mustOptimize(experiments.OptimizeGM(dlmTs, dlmWls, lows, highs, ivs, *workers))

	emit(experiments.OptimizationTable(gridCWN[0], dlmCWN[0], gridGM[0], dlmGM[0]), "table1.csv")

	top := report.NewTable("top CWN candidates (grids)", "strategy", "mean speedup")
	for i, o := range gridCWN {
		if i >= 5 {
			break
		}
		top.AddRow(o.Strategy.Label(), o.MeanSpeedup)
	}
	top.Render(os.Stdout)
}

// table2 runs the full comparison and prints the ratio matrix plus the
// headline summary.
func table2() {
	specs := experiments.SpeedupSuite(*quick)
	fmt.Printf("running %d simulations...\n", len(specs))
	results := mustRun(specs, *workers)
	emit(experiments.SpeedupTable(results), "table2.csv")
	fmt.Println("summary:", experiments.Summarize(results).String())
}

// table3 prints the hop-distance distributions for both the horizon the
// paper's Table 1 lists (2) and the one its published histogram implies (1).
func table3() {
	for _, h := range []int{1, 2} {
		results := mustRun(experiments.HopDistributionSpecs(h, *quick), *workers)
		tb := experiments.HopDistributionTable(results)
		tb.Title = fmt.Sprintf("%s — CWN horizon %d", tb.Title, h)
		emit(tb, fmt.Sprintf("table3_h%d.csv", h))
	}
	fmt.Println("paper: CWN [1 3979 1024 713 514 375 298 223 202 1032] avg 3.15; GM [4068 2372 1045 527 195 84 43 20 4 3] avg 0.92")
}

// utilizationPlots renders the Plot 1-10 family (and the fib analogues).
func utilizationPlots(topos []experiments.TopoSpec, prog string, firstPlot int) {
	for i, ts := range topos {
		if *quick && ts.PEs() > 100 {
			continue
		}
		results := mustRun(experiments.UtilizationCurveSpecs(ts, prog, *quick), *workers)
		title := fmt.Sprintf("%s on %s", prog, ts.Label())
		if firstPlot > 0 {
			title = fmt.Sprintf("Plot %d: %s", firstPlot+len(topos)-1-i, title)
		}
		ch := experiments.UtilizationChart(title, results)
		ch.Render(os.Stdout)
		fmt.Println()
		writeCSV(experiments.CurveTable(title, results), fmt.Sprintf("curve_%s_%s.csv", prog, ts.Label()))
	}
}

// timePlots renders the Plot 11-16 family.
func timePlots(ts experiments.TopoSpec, fibSizes []int, firstPlot int) {
	for i, m := range fibSizes {
		if *quick && m > 15 {
			m = 13
		}
		results := mustRun(experiments.TimeSeriesSpecs(ts, experiments.Fib(m), 50), *workers)
		title := fmt.Sprintf("Plot %d: fib(%d) on %s, utilization over time", firstPlot+i, m, ts.Label())
		experiments.TimeSeriesChart(title, results).Render(os.Stdout)
		fmt.Println()
		writeCSV(experiments.TimeSeriesTable(title, results), fmt.Sprintf("plot%d_fib%d_%s.csv", firstPlot+i, m, ts.Label()))
	}
}

// hypercube renders the appendix: utilization-vs-goals curves for
// dimensions 5-7 and the dimension-7 time traces.
func hypercube() {
	for _, ts := range experiments.PaperHypercubes() {
		if *quick && ts.PEs() > 64 {
			continue
		}
		results := mustRun(experiments.UtilizationCurveSpecs(ts, "fib", *quick), *workers)
		experiments.UtilizationChart(fmt.Sprintf("Appendix: fib on %s", ts.Label()), results).Render(os.Stdout)
		fmt.Println()
	}
	dim := 7
	sizes := []int{18, 15}
	if *quick {
		dim, sizes = 5, []int{13}
	}
	for _, m := range sizes {
		results := mustRun(experiments.TimeSeriesSpecs(experiments.Hypercube(dim), experiments.Fib(m), 50), *workers)
		experiments.TimeSeriesChart(fmt.Sprintf("Appendix: fib(%d) on hypercube-d%d over time", m, dim), results).Render(os.Stdout)
		fmt.Println()
	}
}

// ablation runs the future-work extension comparison.
func ablation() {
	results := mustRun(experiments.AblationSpecs(*quick), *workers)
	emit(experiments.ResultTable("CWN extensions and baselines (paper future work)", results), "ablation.csv")
}

// commRatio runs the communication-ratio caveat sweep.
func commRatio() {
	results := mustRun(experiments.CommRatioSpecs(*quick), *workers)
	emit(experiments.ResultTable("communication:computation ratio sweep", results), "commratio.csv")
}

// diameter runs the diameter-conjecture study: same machine size,
// varying network diameter.
func diameter() {
	results := mustRun(experiments.DiameterStudySpecs(*quick), *workers)
	emit(experiments.DiameterStudyTable(results), "diameter.csv")
}

// imbalance sweeps computation-tree skew at fixed size.
func imbalance() {
	results := mustRun(experiments.ImbalanceSpecs(*quick), *workers)
	emit(experiments.ResultTable("tree-imbalance sweep (64 PEs, fixed goals)", results), "imbalance.csv")
}

// monitor reproduces ORACLE's load-distribution display: per-PE
// utilization frames for both schemes on the 10x10 grid, showing CWN's
// fast spread versus GM's hoarding frame by frame.
func monitor() {
	wl := experiments.Fib(15)
	if *quick {
		wl = experiments.Fib(13)
	}
	ts := experiments.Grid(10)
	for _, strat := range []experiments.StrategySpec{experiments.PaperCWNFor(ts), experiments.PaperGMFor(ts)} {
		res := experiments.RunSpec{
			Topo: ts, Workload: wl, Strategy: strat,
			SampleInterval: 50, MonitorPE: true,
		}.Execute()
		fmt.Printf("--- %s: load monitor, every 4th frame ---\n", res.Spec.Name())
		res.Stats.Monitor.Render(os.Stdout, 10, 10, 4)
		fmt.Println()
	}
}

// mustRun executes specs, exiting with the joined error if any run
// fails — a paper regeneration has no use for partial tables.
func mustRun(specs []experiments.RunSpec, workers int) []*experiments.Result {
	results, err := experiments.RunAll(specs, workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	return results
}

func mustOptimize(out []experiments.OptOutcome, err error) []experiments.OptOutcome {
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
	return out
}
