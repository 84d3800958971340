// Example scenario drives load-distribution strategies through the
// same scripted disaster: a Poisson job stream on a 10×10 grid loses
// 25% of its PEs at t=5000 and gets them back at t=10000. The
// comparison the static paper cannot express: which strategy
// re-distributes fastest when the environment shifts under it.
//
// Two fault modes and two strategy generations meet here:
//
//   - fail: (blackout) — queued goals evacuate to the nearest live PE,
//     arriving goals are redirected, nothing is lost;
//   - crash: (state loss) — queued and in-flight goals vanish, every
//     affected job aborts and retries from its root (GoalsLost /
//     JobsAborted / JobsRetried accounting), or is abandoned once a
//     RetryLimit budget runs out (JobsAbandoned, goodput);
//   - sentinel-only strategies react through load words alone, while
//     the +fa variants subscribe to the machine's PEFailed/PERecovered
//     events — shedding queue ahead of the evacuation flood and
//     backfilling recovered PEs immediately.
//
// Recovery is reported in both windowed-p99 keyings: completion-time
// (stragglers echo past the restore) and injection-time ("t2s inj" —
// what newly arriving jobs saw).
//
// Run with: go run ./examples/scenario
package main

import (
	"fmt"
	"os"

	"cwnsim/internal/experiments"
	"cwnsim/internal/report"
	"cwnsim/internal/scenario"
)

func run(ss experiments.StrategySpec, script string, retryLimit int) *experiments.Result {
	spec := experiments.RunSpec{
		Topo:           experiments.Grid(10),
		Workload:       experiments.Fib(9),
		Strategy:       ss,
		Arrival:        experiments.PoissonArrivals(25, 600),
		Warmup:         1000,
		SampleInterval: 250,
		Scenario:       script,
		RetryLimit:     retryLimit,
	}
	if retryLimit > 0 {
		spec.RetryBackoff = 50
	}
	r, err := spec.ExecuteErr()
	if err != nil {
		fmt.Fprintln(os.Stderr, "scenario example:", err)
		os.Exit(1)
	}
	return r
}

func settleCell(rec *scenario.Recovery) string {
	if rec.Recovered() {
		return fmt.Sprintf("%d", rec.TimeToSteady)
	}
	return "never"
}

func main() {
	const blackout = "fail:pes=25%@t=5000,recover@t=10000"
	const crash = "crash:pes=25%@t=5000,recover@t=10000"

	strategies := []experiments.StrategySpec{
		experiments.CWN(9, 2),
		{Kind: "cwn", Radius: 9, Horizon: 2, FailureAware: true},
		experiments.GM(1, 2, 20),
		{Kind: "gm", Low: 1, High: 2, Interval: 20, FailureAware: true},
		{Kind: "worksteal", Interval: 20, Threshold: 2},
		{Kind: "worksteal", Interval: 20, Threshold: 2, FailureAware: true},
	}

	fmt.Printf("25%%-PE blackout on grid-10x10, fib(9) jobs, Poisson arrivals (gap 25)\n")
	fmt.Printf("scenario: %s\n\n", blackout)

	tb := report.NewTable("recovery through the blackout (fail: evacuating)",
		"strategy", "jobs done", "requeued", "baseline p99", "peak p99", "t2s done", "t2s inj", "eff util%")
	util := report.NewChart("mean ready-queue length over time (blackout t=5000..10000)", "virtual time", "mean queue length")
	markers := []rune{'c', 'C', 'g', 'G', 'w', 'W'}

	for i, ss := range strategies {
		r := run(ss, blackout, 0)
		done := fmt.Sprintf("%d/%d", r.Stats.JobsDone, r.Stats.JobsInjected)
		if r.Saturated() {
			done += "*"
		}
		tb.AddRow(ss.Label(), done, r.GoalsRequeued,
			fmt.Sprintf("%.0f", r.Recovery.BaselineP99), fmt.Sprintf("%.0f", r.Recovery.PeakP99),
			settleCell(r.Recovery), settleCell(r.RecoveryInj), fmt.Sprintf("%.1f", 100*r.EffectiveUtilization()))

		q := r.Stats.QueueLen
		q.Label = ss.Label()
		util.Add(&q, markers[i])
	}
	tb.Render(os.Stdout)
	fmt.Println()
	util.Render(os.Stdout)

	// The same disaster as a crash: state is lost, jobs abort and
	// retry, and the jobs-lost accounting becomes non-trivial. Each
	// strategy runs twice — unbounded retry (the pre-policy behavior,
	// goodput 1 unless saturated) and with a 2-retry budget plus
	// backoff, where the machine abandons unlucky jobs and goodput
	// prices the availability it gave up.
	fmt.Printf("\nsame disaster with state loss\nscenario: %s\n\n", crash)
	ct := report.NewTable("recovery through the crash (crash: state loss)",
		"strategy", "retry policy", "jobs done", "lost goals", "aborted", "retried", "abandoned", "goodput", "peak p99", "t2s done", "t2s inj")
	for _, ss := range []experiments.StrategySpec{
		experiments.CWN(9, 2),
		{Kind: "cwn", Radius: 9, Horizon: 2, FailureAware: true},
	} {
		for _, limit := range []int{0, 2} {
			r := run(ss, crash, limit)
			policy := "unbounded"
			if limit > 0 {
				policy = fmt.Sprintf("limit %d +backoff", limit)
			}
			done := fmt.Sprintf("%d/%d", r.Stats.JobsDone, r.Stats.JobsInjected)
			if r.Saturated() {
				done += "*"
			}
			ct.AddRow(ss.Label(), policy, done, r.GoalsLost, r.JobsAborted, r.JobsRetried,
				r.JobsAbandoned, fmt.Sprintf("%.3f", r.Goodput()),
				fmt.Sprintf("%.0f", r.Recovery.PeakP99),
				settleCell(r.Recovery), settleCell(r.RecoveryInj))
		}
	}
	ct.Render(os.Stdout)
}
