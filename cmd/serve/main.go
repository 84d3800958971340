// Command serve benchmarks load-distribution strategies as an open
// system: instead of the paper's single tree run to completion, a
// stream of jobs arrives over virtual time (Poisson by default) and
// each strategy is scored on serving metrics — mean/p50/p99 sojourn
// time (injection to root response), throughput, and steady-state
// utilization — across a sweep of offered arrival rates. This is the
// modern serving benchmark the closed-system experiments cannot
// express: it shows where each strategy's latency knee sits and which
// one saturates first.
//
// Examples:
//
//	serve                                    # default CWN/ACWN/GM sweep
//	serve -topos grid:10x10,dlm:10x10:5 -gaps 400,200,100,50 -jobs 300
//	serve -arrival burst -gaps 2000 -burst 25 -bursts 8
//	serve -workload fib:10 -warmup-frac 0.2 -csv out.csv
//
// Runs are deterministic for a fixed -seed: arrival times draw from a
// dedicated stream derived from the seed, so the same invocation
// reproduces the same table bit for bit.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"cwnsim/internal/experiments"
	"cwnsim/internal/machine"
	"cwnsim/internal/report"
)

func main() {
	var (
		topoArg  = flag.String("topos", "grid:10x10,dlm:10x10:5", "comma-separated topologies")
		stratArg = flag.String("strategies", "cwn:9:2,acwn:9:2:3:40,gm:1:2:20", "comma-separated strategies")
		wlArg    = flag.String("workload", "fib:10", "workload each job evaluates")
		gapsArg  = flag.String("gaps", "800,400,200,100,50", "comma-separated mean inter-arrival gaps (smaller = higher offered rate)")
		arrival  = flag.String("arrival", "poisson", "arrival process: poisson | interval | burst")
		jobs     = flag.Int("jobs", 200, "jobs per run (poisson/interval)")
		burstN   = flag.Int("burst", 20, "jobs per burst (burst arrivals)")
		bursts   = flag.Int("bursts", 10, "number of bursts (burst arrivals)")
		seed     = flag.Int64("seed", 1, "simulation seed (fixed seed => identical tables)")
		warmFrac = flag.Float64("warmup-frac", 0.1, "fraction of the expected stream duration excluded as warm-up")
		maxTime  = flag.Int64("maxtime", 0, "measurement horizon override (0 = machine default)")
		workers  = flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		csvPath  = flag.String("csv", "", "also write the flat result table as CSV")
		scenArg  = flag.String("scenario", "", `scripted environment applied to every run, e.g. "fail:pes=25%@t=5000,recover@t=10000"`)
		sample   = flag.Int64("sample", 0, "sampling interval for recovery metrics (0 = auto when -scenario is set)")
		retryLim = flag.Int("retry-limit", 0, "crash retries per job before abandoning it (0 = unbounded; needs a crash -scenario)")
		retryBck = flag.Int64("retry-backoff", 0, "virtual-time backoff per retry attempt (attempt x backoff)")
		traceOut = flag.String("trace-out", "", "write a Perfetto span export (Chrome trace-event JSON) of the first configuration's run")
	)
	flag.Parse()

	var topos []experiments.TopoSpec
	for _, t := range strings.Split(*topoArg, ",") {
		ts, err := experiments.ParseTopo(strings.TrimSpace(t))
		fail(err)
		topos = append(topos, ts)
	}
	var strats []experiments.StrategySpec
	for _, s := range strings.Split(*stratArg, ",") {
		ss, err := experiments.ParseStrategy(strings.TrimSpace(s))
		fail(err)
		strats = append(strats, ss)
	}
	wl, err := experiments.ParseWorkload(*wlArg)
	fail(err)
	var gaps []int64
	for _, g := range strings.Split(*gapsArg, ",") {
		gap, err := strconv.ParseInt(strings.TrimSpace(g), 10, 64)
		if err != nil {
			fail(fmt.Errorf("bad gap %q: %v", strings.TrimSpace(g), err))
		}
		if gap <= 0 {
			fail(fmt.Errorf("gap must be positive, got %d", gap))
		}
		gaps = append(gaps, gap)
	}
	if *warmFrac < 0 || *warmFrac >= 1 {
		fail(fmt.Errorf("-warmup-frac must be in [0,1), got %g", *warmFrac))
	}
	if *jobs < 1 || *burstN < 1 || *bursts < 1 {
		fail(fmt.Errorf("-jobs, -burst and -bursts must be >= 1"))
	}

	// One spec per (gap, topology, strategy); warm-up scales with the
	// expected stream duration (clamped to the measurement horizon —
	// the explicit -maxtime or the machine default) so every rate sheds
	// the same fraction of its ramp.
	horizon := *maxTime
	if horizon <= 0 {
		horizon = int64(machine.DefaultConfig().MaxTime)
	}
	makeArrival := func(gap int64) (experiments.ArrivalSpec, int64) {
		var as experiments.ArrivalSpec
		var span int64
		switch *arrival {
		case "poisson":
			as, span = experiments.PoissonArrivals(float64(gap), *jobs), gap*int64(*jobs)
		case "interval":
			as, span = experiments.IntervalArrivals(gap, *jobs), gap*int64(*jobs)
		case "burst":
			as, span = experiments.BurstArrivals(*burstN, gap, *bursts), gap*int64(*bursts)
		default:
			fail(fmt.Errorf("unknown arrival process %q", *arrival))
		}
		if span > horizon {
			span = horizon
		}
		return as, span
	}
	// offeredRate is the stream's arrival intensity in jobs per 1000
	// units: bursts deliver burstN jobs per gap, the other kinds one.
	offeredRate := func(gap int64) float64 {
		perGap := 1.0
		if *arrival == "burst" {
			perGap = float64(*burstN)
		}
		return 1000 * perGap / float64(gap)
	}

	// Under a scenario, recovery metrics need the sampling timeline; an
	// unset -sample defaults to a window that gives a few hundred points
	// over the default horizon.
	sampleIvl := *sample
	if *scenArg != "" && sampleIvl == 0 {
		sampleIvl = 250
	}

	var specs []experiments.RunSpec
	for _, gap := range gaps {
		for _, ts := range topos {
			for _, ss := range strats {
				as, span := makeArrival(gap)
				spec := experiments.RunSpec{
					Topo:           ts,
					Workload:       wl,
					Strategy:       ss,
					Arrival:        as,
					Seed:           *seed,
					Warmup:         int64(*warmFrac * float64(span)),
					MaxTime:        *maxTime,
					Scenario:       *scenArg,
					SampleInterval: sampleIvl,
					RetryLimit:     *retryLim,
					RetryBackoff:   *retryBck,
				}
				fail(spec.Validate())
				specs = append(specs, spec)
			}
		}
	}

	fmt.Printf("running %d configurations (%s arrivals, %d jobs of %s each, seed %d)...\n\n",
		len(specs), *arrival, jobsPerRun(*arrival, *jobs, *burstN, *bursts), wl.Label(), *seed)
	results, err := experiments.RunAll(specs, *workers)
	fail(err)
	// RunAll returns results in spec order, so the (gap, topo, strategy)
	// cell is plain index arithmetic over the generation loops above.
	lookup := func(gi, ti, si int) *experiments.Result {
		return results[(gi*len(topos)+ti)*len(strats)+si]
	}

	// One rate-vs-latency table per topology: rows are offered rates,
	// one p99-sojourn column per strategy. '*' marks saturated runs
	// (jobs still in flight at the horizon — p99 there is a floor).
	for ti, ts := range topos {
		headers := []string{"gap", "rate/ku"}
		for _, ss := range strats {
			headers = append(headers, ss.ShortLabel()+" p99")
		}
		tb := report.NewTable(fmt.Sprintf("p99 sojourn vs offered rate on %s (%d PEs)", ts.Label(), ts.PEs()), headers...)
		for gi, gap := range gaps {
			row := []any{gap, fmt.Sprintf("%.2f", offeredRate(gap))}
			for si := range strats {
				r := lookup(gi, ti, si)
				// NaN means no job survived the warm-up cutoff: there is
				// no latency datum, which must not print as a number.
				cell := "-"
				if !math.IsNaN(r.P99Soj) {
					cell = fmt.Sprintf("%.0f", r.P99Soj)
				}
				if r.Saturated() {
					cell += "*"
				}
				row = append(row, cell)
			}
			tb.AddRow(row...)
		}
		tb.Render(os.Stdout)
		fmt.Println()
	}

	// The flat detail table carries the full serving metrics per run.
	// Throughput is the steady (post-warm-up) figure so it shares the
	// measurement window with the warm-up-excluded sojourn percentiles —
	// whole-run throughput would fold the empty-machine ramp into the
	// knee plots the p99 columns feed.
	detail := report.NewTable("per-run serving metrics",
		"topology", "strategy", "gap", "jobs done", "mean soj", "p50", "p99", "steady tput/ku", "steady util%")
	for _, r := range results {
		st := r.Stats
		done := fmt.Sprintf("%d/%d", st.JobsDone, st.JobsInjected)
		if r.Saturated() {
			done += "*"
		}
		detail.AddRow(r.Spec.Topo.Label(), r.Spec.Strategy.ShortLabel(), r.Spec.Arrival.Label(),
			done, fmtSoj(r.MeanSoj), fmtSoj(r.P50Soj), fmtSoj(r.P99Soj),
			1000*r.SteadyTput, 100*st.SteadyUtilization())
	}
	detail.Render(os.Stdout)

	// Under a scripted environment, append the recovery metrics the
	// scenario subsystem computes per run — both windowed-p99 keyings
	// ("t2s done" completion-keyed, "t2s inj" injection-keyed) plus the
	// state-loss counters for crash scripts. "abnd" is jobs abandoned
	// after exhausting -retry-limit; goodput is completed/injected, the
	// availability a bounded-retry policy trades against latency.
	if *scenArg != "" {
		rec := report.NewTable("scenario recovery",
			"topology", "strategy", "gap", "requeued", "lost", "abnd", "goodput", "baseline p99", "peak p99", "t2s done", "t2s inj", "eff util%")
		for _, r := range results {
			base, peak, settle := r.Recovery.TableCells()
			_, _, settleInj := r.RecoveryInj.TableCells()
			rec.AddRow(r.Spec.Topo.Label(), r.Spec.Strategy.ShortLabel(), r.Spec.Arrival.Label(),
				r.Requeued, r.GoalsLost, r.JobsAbandoned, fmt.Sprintf("%.3f", r.Goodput),
				base, peak, settle, settleInj, fmt.Sprintf("%.1f", r.EffUtil))
		}
		fmt.Println()
		rec.Render(os.Stdout)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		fail(err)
		defer f.Close()
		fail(detail.WriteCSV(f))
		fmt.Printf("\nwrote %s\n", *csvPath)
	}

	// The span export traces one extra run of the first configuration:
	// sinks cannot be shared across the batch's concurrent runs.
	if *traceOut != "" {
		fail(experiments.WriteTrace(specs[0], *traceOut))
		fmt.Printf("\nwrote %s (load in https://ui.perfetto.dev or chrome://tracing)\n", *traceOut)
	}
}

// fmtSoj renders a sojourn statistic; NaN (no post-warm-up data) shows
// as "-" rather than leaking into terminal tables and CSV output.
func fmtSoj(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.2f", v)
}

// jobsPerRun reports the stream length implied by the arrival flags.
func jobsPerRun(arrival string, jobs, burstN, bursts int) int {
	if arrival == "burst" {
		return burstN * bursts
	}
	return jobs
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(2)
	}
}
