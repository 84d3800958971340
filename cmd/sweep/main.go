// Command sweep runs ad-hoc batches of simulations: either the cross
// product of -topos × -workloads × -strategies given on the command
// line, or the runs listed in a JSON spec file (-spec). Each
// configuration can be replicated over several seeds (-repeats) to get
// mean ± standard deviation — replication the 1987 VAX could not
// afford.
//
// Examples:
//
//	sweep -topos grid:10x10,dlm:10x10:5 -workloads fib:15 \
//	      -strategies cwn:9:2,gm:1:2:20,ideal -repeats 5
//	sweep -spec experiments.json -csv out.csv
//	sweep -topos grid:8x8 -workloads fib:13 -strategies cwn:9:2 -save batch.json
//	sweep -scenario "fail:pes=25%@t=5000,recover@t=10000" -sample 250
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cwnsim/internal/experiments"
	"cwnsim/internal/report"
)

func main() {
	var (
		topos    = flag.String("topos", "grid:10x10", "comma-separated topologies")
		wls      = flag.String("workloads", "fib:15", "comma-separated workloads")
		strats   = flag.String("strategies", "cwn:9:2,gm:1:2:20", "comma-separated strategies")
		specFile = flag.String("spec", "", "JSON spec file (overrides the cross-product flags)")
		saveFile = flag.String("save", "", "write the generated specs to a JSON file and exit")
		repeats  = flag.Int("repeats", 1, "replications per configuration (seeds 1..n)")
		run      = experiments.RegisterRunFlags(flag.CommandLine)
	)
	flag.Parse()
	if *repeats < 1 {
		fail(fmt.Errorf("-repeats must be >= 1, got %d", *repeats))
	}

	var specs []experiments.RunSpec
	if *specFile != "" {
		var err error
		specs, err = experiments.LoadSpecs(*specFile)
		fail(err)
	} else {
		for _, ts := range strings.Split(*topos, ",") {
			topo, err := experiments.ParseTopo(strings.TrimSpace(ts))
			fail(err)
			for _, ws := range strings.Split(*wls, ",") {
				wl, err := experiments.ParseWorkload(strings.TrimSpace(ws))
				fail(err)
				for _, ss := range strings.Split(*strats, ",") {
					strat, err := experiments.ParseStrategy(strings.TrimSpace(ss))
					fail(err)
					specs = append(specs, experiments.RunSpec{Topo: topo, Workload: wl, Strategy: strat})
				}
			}
		}
	}
	fail(run.Apply(specs))
	if *saveFile != "" {
		fail(experiments.SaveSpecs(*saveFile, "generated by cmd/sweep", specs))
		fmt.Printf("wrote %d specs to %s\n", len(specs), *saveFile)
		return
	}

	fmt.Printf("running %d configurations x %d repeats...\n", len(specs), *repeats)
	// One simulation pass serves both tables: the per-seed results feed
	// the scenario recovery rows without re-simulating anything.
	aggs, results, err := experiments.RunReplicatedResults(specs, *repeats, run.Workers)
	fail(err)
	tb := experiments.AggregateTable("sweep results", aggs)
	tb.Render(os.Stdout)

	// Under a scripted environment, also report per-configuration
	// recovery metrics (first seed of each configuration), in both
	// windowed-p99 keyings: completion-time ("t2s done", where blackout
	// stragglers echo past the restore) and injection-time ("t2s inj",
	// what newly arriving jobs saw). Crash scripts add the state-loss
	// accounting; with -retry-limit set, "abnd" counts jobs given up
	// and goodput (completed/injected) reports the availability cost.
	if run.Scenario != "" {
		rec := report.NewTable("scenario recovery (first seed)",
			"run", "requeued", "aborts", "lost", "jobs abrt", "abnd", "goodput", "baseline p99", "peak p99", "t2s done", "t2s inj", "eff util%")
		for i := range specs {
			r := results[i**repeats] // the configuration's first seed
			base, peak, settle := r.Recovery.TableCells()
			_, _, settleInj := r.RecoveryInj.TableCells()
			rec.AddRow(r.Spec.Name(), r.GoalsRequeued, r.ServiceAborts, r.GoalsLost, r.JobsAborted,
				r.JobsAbandoned, fmt.Sprintf("%.3f", r.Goodput()),
				base, peak, settle, settleInj, fmt.Sprintf("%.1f", 100*r.EffectiveUtilization()))
		}
		fmt.Println()
		rec.Render(os.Stdout)
	}

	if run.CSV != "" {
		fail(tb.WriteCSVFile(run.CSV))
		fmt.Printf("wrote %s\n", run.CSV)
	}

	// The span export traces one extra run of the first configuration
	// (first seed) rather than piggybacking on the batch: sinks cannot be
	// shared across concurrent runs, and tracing every cell would
	// dominate sweep memory.
	if run.TraceOut != "" {
		fail(experiments.WriteTrace(specs[0], run.TraceOut))
		fmt.Printf("wrote %s (load in https://ui.perfetto.dev or chrome://tracing)\n", run.TraceOut)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(2)
	}
}
