package machine

import (
	"fmt"
	"strings"

	"cwnsim/internal/metrics"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/trace"
)

// Stats holds everything ORACLE reported for one run: utilization
// (overall, per-PE, over time), completion time, channel utilizations,
// message counts and distance distributions, plus the program's result.
//
// Stats is mergeable: a sharded run folds per-shard copies with merge
// at finalize, and the statsmerge analyzer (internal/analysis) checks
// at vet time that every field is either folded there or carries a
// //simlint:nomerge tag saying why not — so a field added here but
// forgotten in merge fails the build instead of silently dropping a
// statistic from sharded runs.
//
//simlint:mergeable
type Stats struct {
	// Labels, set identically on every shard by the coordinator.
	Topology string //simlint:nomerge label: group-level, set at construction
	Strategy string //simlint:nomerge label: group-level, set at construction
	Workload string //simlint:nomerge label: group-level, set at construction
	P        int    //simlint:nomerge label: the full machine size, not a per-shard count
	Goals    int

	// Outcome. Completed means the source was exhausted and every
	// injected job left: it delivered its root response or was
	// abandoned past Config.RetryLimit. Makespan is when a completed run
	// ended, the latest instant a job left, and MaxTime for a run cut
	// off incomplete. Result is the last completed job's value (the
	// program result for single-job runs) on a completed run and on an
	// incomplete one-shard run; an incomplete run of two or more shards
	// reports 0, whatever its jobs completed. The benchmark's pinned
	// fault-shard digest holds that 0 (its 2-shard run ends incomplete),
	// so the two rules stay apart until a change that re-pins it aligns
	// them.
	// Stalled flags an incomplete run where jobs remained in flight but
	// nothing was queued, executing, or on a channel — a lost goal or
	// deadlock, as opposed to honest saturation at MaxTime.
	Completed bool     //simlint:nomerge outcome: a group-level decision the coordinator sets at a window barrier
	Stalled   bool     //simlint:nomerge outcome: group-level, decided at window barriers
	Result    int64    //simlint:nomerge outcome: the last completed job's value (0 on an incomplete K >= 2 run), chosen by the coordinator
	Makespan  sim.Time //simlint:nomerge outcome: group virtual time, not a per-shard sum
	// Events counts the engine events fired across all shards: every
	// scheduler entry fired, plus the words a load-word run's entry
	// delivers beyond its first, plus the words a machine whose strategy
	// is LoadBlind tallies instead of delivering (sim.Engine.Tally, one
	// tally per run, counted when the run passes it), so each load-word
	// delivery counts as one event, as when every word was an entry of
	// its own. Scenario ops apply at window barriers, not as events, so
	// no run counts them, whatever its shard count.
	Events uint64

	// Job stream accounting. JobsInjected counts arrivals; JobsDone
	// counts delivered root responses (fewer than injected when an
	// overloaded stream hits MaxTime). JobRecords holds one latency
	// record per completed job in completion order — capped at
	// Config.SojournBound records when a bound is set, so long streams
	// stay in bounded memory. SteadySojourn is the run's one sojourn
	// sample: the jobs injected at or after Warmup, so ramp-up
	// transients do not pollute tail percentiles, and every completed
	// job when Warmup is 0. It accrues streamingly and is complete even
	// when JobRecords is capped (past SojournBound it collapses into a
	// histogram, see Config.SojournBound).
	// SteadyJobsDone counts root responses delivered at or after Warmup
	// — the completion count SteadyThroughput divides by, so throughput
	// and sojourn percentiles describe the same post-warm-up window.
	JobsInjected   int64
	JobsDone       int64
	SteadyJobsDone int64
	JobRecords     []JobRecord
	SteadySojourn  metrics.Sample
	Warmup         sim.Time //simlint:nomerge config echo: identical on every shard by construction
	WarmupBusy     sim.Time

	// PE activity.
	TotalBusy      sim.Time
	BusyPerPE      []sim.Time
	GoalsPerPE     []int64
	GoalsExecuted  int64
	RespIntegrated int64

	// Message accounting. GoalHops is the paper's Table 3 quantity: the
	// number of hops each goal message travelled before being accepted
	// (CWN counts its whole walk, including backtracking). GoalDist is
	// the net topological displacement from the goal's origin to its
	// executing PE. RespHops counts response routing hops.
	GoalHops  metrics.Hist
	GoalDist  metrics.Hist
	RespHops  metrics.Hist
	MsgCounts [numMsgKinds]int64

	// Channel activity, indexed by channel ID.
	ChannelBusy []sim.Time
	ChannelMsgs []int64

	// QueueDelay summarizes, per executed goal, the virtual time between
	// its final acceptance and the start of its execution — the pure
	// queueing component of latency. Hoarding strategies (GM on grids)
	// show it as a long mean delay.
	QueueDelay metrics.Summary

	// Timeline is percent utilization per sampling window (plots 11-16);
	// empty unless Config.SampleInterval > 0.
	Timeline metrics.Series //simlint:nomerge sampling series: shards defer raw partials and shardGroup.mergeSamples folds them into the merged Stats directly, bypassing merge

	// QueueLen and QueueImbalance sample the ready queues alongside the
	// utilization timeline: mean queue length across PEs, and Jain's
	// fairness index over per-PE queue lengths (1 = perfectly even).
	// Empty unless Config.SampleInterval > 0.
	QueueLen       metrics.Series //simlint:nomerge sampling series: folded from deferred per-shard partials by shardGroup.mergeSamples, not merge
	QueueImbalance metrics.Series //simlint:nomerge sampling series: Jain's index is a ratio of sums, unmergeable from per-shard indices — shardGroup.mergeSamples recomputes it from pooled raw partials

	// Monitor holds the per-PE utilization frames of ORACLE's load
	// monitor; empty unless Config.MonitorPE and SampleInterval are set.
	Monitor trace.Monitor //simlint:nomerge sampling frames: shardGroup.mergeSamples concatenates the shards' PE-block frames into full-machine frames, bypassing merge

	// Scenario accounting (internal/scenario); all zero on unscripted
	// runs. GoalsRequeued counts goals evacuated from failed PEs or
	// redirected away on arrival; ServiceAborts the executions cut off
	// mid-service (their partial work was lost); RootRedirects the
	// injections diverted off a failed root PE. DownPETime integrates
	// PE-blackout time over the run, and SojournWindows records the p99
	// sojourn of the jobs completing in each sampling window (scripted
	// runs with sampling on; windows ending inside the warm-up dropped)
	// — the series recovery analysis reads.
	GoalsRequeued  int64
	ServiceAborts  int64
	RootRedirects  int64
	DownPETime     sim.Time
	SojournWindows metrics.Series //simlint:nomerge scenario series: each shard sample records its completion log's length and shardGroup.mergeSamples pools every shard's completions since its previous sample into one machine-wide p99 point, bypassing merge

	// Crash-with-state-loss accounting (the `crash:` scenario op; all
	// zero under blackout-only scripts). GoalsLost counts goals whose
	// state was destroyed or discarded because a crash killed their
	// attempt: vaporized on the crashed PE (queued, in service, or an
	// executed parent's pending spawn record), purged from live PEs'
	// queues when the job aborted, or dropped in transit/at service
	// completion as stale. JobsAborted counts attempts destroyed by
	// crashes; JobsRetried the root re-injections that followed;
	// JobsAbandoned the aborts that exhausted Config.RetryLimit and
	// were given up instead (JobsRetried + JobsAbandoned ==
	// JobsAborted always — with no limit set JobsAbandoned is zero and
	// every abort retries). Retried jobs keep their original injection
	// time, so sojourn figures bill the lost attempt; abandoned jobs
	// count as injected but never done, which is what Goodput reads.
	GoalsLost     int64
	JobsAborted   int64
	JobsRetried   int64
	JobsAbandoned int64

	// InjSojournWindows is the injection-time-keyed companion of
	// SojournWindows: each point is the p99 sojourn of the completed
	// jobs INJECTED in that sampling window (recorded at the window's
	// end), isolating what newly arriving jobs experienced. Completion
	// keying lets blackout stragglers echo into post-restore windows;
	// this keying does not. Under a SeriesBound the windows widen to the
	// least power-of-two multiple of SampleInterval that leaves at most
	// SeriesBound of them up to the latest injection. Computed at
	// finalize from the completion logs; same scenario+sampling gate as
	// SojournWindows.
	InjSojournWindows metrics.Series //simlint:nomerge scenario series: shardGroup.mergeInjSoj buckets every shard's completion log by injection window at finalize and computes the pooled percentiles directly, bypassing merge
}

func newStats(topo *topology.Topology, workloadName, stratName string) *Stats {
	return &Stats{
		Topology:    topo.Name(),
		Strategy:    stratName,
		Workload:    workloadName,
		P:           topo.Size(),
		BusyPerPE:   make([]sim.Time, topo.Size()),
		GoalsPerPE:  make([]int64, topo.Size()),
		ChannelBusy: make([]sim.Time, topo.NumChannels()),
		ChannelMsgs: make([]int64, topo.NumChannels()),
		Timeline:    metrics.Series{Label: "util%"},
	}
}

// merge folds shard o's statistics into s — the finalize step of a
// sharded run. Counters and totals sum; per-PE and per-channel arrays
// add elementwise (each shard wrote only its owned entries, and channel
// occupancy accrues per sending side); distribution metrics merge
// bucket-exactly. Outcome fields (Completed, Stalled, Result, Makespan)
// and labels are group-level decisions the coordinator sets — merge
// leaves them alone. JobRecords concatenate; the caller re-sorts them
// into completion order afterwards.
func (s *Stats) merge(o *Stats) {
	s.Goals += o.Goals
	s.Events += o.Events
	s.JobsInjected += o.JobsInjected
	s.JobsDone += o.JobsDone
	s.SteadyJobsDone += o.SteadyJobsDone
	s.JobRecords = append(s.JobRecords, o.JobRecords...)
	s.SteadySojourn.Merge(&o.SteadySojourn)
	s.WarmupBusy += o.WarmupBusy
	s.TotalBusy += o.TotalBusy
	for i, b := range o.BusyPerPE {
		s.BusyPerPE[i] += b
	}
	for i, g := range o.GoalsPerPE {
		s.GoalsPerPE[i] += g
	}
	s.GoalsExecuted += o.GoalsExecuted
	s.RespIntegrated += o.RespIntegrated
	s.GoalHops.Merge(&o.GoalHops)
	s.GoalDist.Merge(&o.GoalDist)
	s.RespHops.Merge(&o.RespHops)
	for k := range s.MsgCounts {
		s.MsgCounts[k] += o.MsgCounts[k]
	}
	for i, b := range o.ChannelBusy {
		s.ChannelBusy[i] += b
	}
	for i, n := range o.ChannelMsgs {
		s.ChannelMsgs[i] += n
	}
	s.QueueDelay.Merge(&o.QueueDelay)
	// The sampling series/monitor — and, on scenario runs, the windowed
	// sojourn series — are folded from per-shard partials and completion
	// logs straight into shard 0's Stats by shardGroup.mergeSamples /
	// mergeInjSoj (the other shards' Stats hold no series points); the
	// crash/scenario counters merge here.
	s.GoalsRequeued += o.GoalsRequeued
	s.ServiceAborts += o.ServiceAborts
	s.RootRedirects += o.RootRedirects
	s.DownPETime += o.DownPETime
	s.GoalsLost += o.GoalsLost
	s.JobsAborted += o.JobsAborted
	s.JobsRetried += o.JobsRetried
	s.JobsAbandoned += o.JobsAbandoned
}

// Utilization returns average PE utilization in [0,1]: total busy time
// over P×makespan.
func (s *Stats) Utilization() float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.TotalBusy) / (float64(s.P) * float64(s.Makespan))
}

// UtilizationPercent returns Utilization×100, the paper's y-axis.
func (s *Stats) UtilizationPercent() float64 { return 100 * s.Utilization() }

// EffectiveUtilization returns busy time over the capacity that
// actually existed: P×makespan minus PE-blackout time. On unscripted
// runs it equals Utilization; under a scenario it answers "how well was
// the surviving capacity used" where Utilization would charge the dead
// PEs' idle time against the strategy.
func (s *Stats) EffectiveUtilization() float64 {
	cap := float64(s.P)*float64(s.Makespan) - float64(s.DownPETime)
	if cap <= 0 {
		return 0
	}
	return float64(s.TotalBusy) / cap
}

// SteadyUtilization returns average PE utilization in [0,1] over the
// post-warm-up window only — the steady-state figure for arrival
// streams, where the empty-machine ramp would otherwise drag the mean
// down. With no warm-up configured it equals Utilization. Returns 0 if
// the run ended before the warm-up elapsed.
func (s *Stats) SteadyUtilization() float64 {
	if s.Warmup <= 0 {
		return s.Utilization()
	}
	window := s.Makespan - s.Warmup
	if window <= 0 {
		return 0
	}
	return float64(s.TotalBusy-s.WarmupBusy) / (float64(s.P) * float64(window))
}

// MeanSojourn returns the average time a completed job spent in the
// system (injection to root response), warm-up jobs excluded. NaN when
// no completed job survived the warm-up cutoff — no data is not zero
// latency.
func (s *Stats) MeanSojourn() float64 { return s.SteadySojourn.Mean() }

// SojournP50 returns the median steady-state sojourn time (NaN when
// the steady sample is empty).
func (s *Stats) SojournP50() float64 { return s.SteadySojourn.Percentile(0.50) }

// SojournP99 returns the 99th-percentile steady-state sojourn time —
// the tail-latency figure an arrival-rate sweep plots (NaN when the
// steady sample is empty).
func (s *Stats) SojournP99() float64 { return s.SteadySojourn.Percentile(0.99) }

// Throughput returns completed jobs per unit virtual time over the
// whole run (0 for an empty run).
func (s *Stats) Throughput() float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.JobsDone) / float64(s.Makespan)
}

// SteadyThroughput returns completed jobs per unit virtual time over
// the post-warm-up window only — the figure to plot against the
// warm-up-excluded sojourn percentiles, so a knee plot compares like
// with like (whole-run Throughput drags the empty-machine ramp into the
// denominator). With no warm-up configured it equals Throughput; it
// returns 0 if the run ended before the warm-up elapsed.
func (s *Stats) SteadyThroughput() float64 {
	if s.Warmup <= 0 {
		return s.Throughput()
	}
	window := s.Makespan - s.Warmup
	if window <= 0 {
		return 0
	}
	return float64(s.SteadyJobsDone) / float64(window)
}

// Goodput returns the fraction of injected jobs that completed — the
// availability figure a bounded-retry policy trades against latency.
// On a healthy run it is 1 at completion (or below 1 only because a
// saturated stream hit MaxTime); under crashes with RetryLimit set,
// abandoned jobs pull it down. 0 for an empty run.
func (s *Stats) Goodput() float64 {
	if s.JobsInjected == 0 {
		return 0
	}
	return float64(s.JobsDone) / float64(s.JobsInjected)
}

// Speedup returns total sequential work divided by makespan. At
// completion this equals the paper's "number of PEs × average
// utilization / 100".
func (s *Stats) Speedup() float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.TotalBusy) / float64(s.Makespan)
}

// PEUtilization returns PE i's individual utilization in [0,1].
func (s *Stats) PEUtilization(i int) float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.BusyPerPE[i]) / float64(s.Makespan)
}

// ChannelUtilization returns channel c's busy fraction.
func (s *Stats) ChannelUtilization(c int) float64 {
	if s.Makespan == 0 {
		return 0
	}
	return float64(s.ChannelBusy[c]) / float64(s.Makespan)
}

// MaxChannelUtilization returns the busiest channel's utilization — the
// "communication stagnation" indicator the paper kept low.
func (s *Stats) MaxChannelUtilization() float64 {
	max := 0.0
	for c := range s.ChannelBusy {
		if u := s.ChannelUtilization(c); u > max {
			max = u
		}
	}
	return max
}

// BalanceIndex returns Jain's fairness index over per-PE busy times:
// 1.0 means the load was spread perfectly evenly, 1/P means one PE did
// everything. The paper's "effectiveness at distributing the work" as a
// single number.
func (s *Stats) BalanceIndex() float64 {
	xs := make([]float64, len(s.BusyPerPE))
	for i, b := range s.BusyPerPE {
		xs[i] = float64(b)
	}
	return metrics.JainIndex(xs)
}

// TotalMessages returns the total message transmissions of all kinds.
func (s *Stats) TotalMessages() int64 {
	var n int64
	for _, c := range s.MsgCounts {
		n += c
	}
	return n
}

// AvgGoalHops returns the mean goal travel distance (paper: ~3 hops for
// CWN vs <1 for GM on the 10×10 grid).
func (s *Stats) AvgGoalHops() float64 { return s.GoalHops.Mean() }

// String renders a one-paragraph run summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s | %s | %s (%d goals)\n", s.Strategy, s.Topology, s.Workload, s.Goals)
	fmt.Fprintf(&b, "  completed=%v result=%d makespan=%d events=%d\n", s.Completed, s.Result, s.Makespan, s.Events)
	if s.JobsInjected > 1 {
		fmt.Fprintf(&b, "  jobs: %d/%d done, throughput=%.4f/unit, sojourn %s\n",
			s.JobsDone, s.JobsInjected, s.Throughput(), s.SteadySojourn.String())
	}
	fmt.Fprintf(&b, "  utilization=%.1f%% speedup=%.2f balance=%.2f (P=%d)\n", s.UtilizationPercent(), s.Speedup(), s.BalanceIndex(), s.P)
	fmt.Fprintf(&b, "  goal hops: %s\n", s.GoalHops.String())
	fmt.Fprintf(&b, "  queue delay: mean=%.1f max=%.0f\n", s.QueueDelay.Mean(), s.QueueDelay.Max())
	fmt.Fprintf(&b, "  messages: goal=%d resp=%d load=%d ctrl=%d maxChanUtil=%.1f%%",
		s.MsgCounts[MsgGoal], s.MsgCounts[MsgResponse], s.MsgCounts[MsgLoad], s.MsgCounts[MsgControl],
		100*s.MaxChannelUtilization())
	if s.DownPETime > 0 || s.GoalsRequeued > 0 {
		fmt.Fprintf(&b, "\n  scenario: requeued=%d aborts=%d rootRedirects=%d downPEtime=%d effUtil=%.1f%%",
			s.GoalsRequeued, s.ServiceAborts, s.RootRedirects, s.DownPETime, 100*s.EffectiveUtilization())
	}
	if s.GoalsLost > 0 || s.JobsAborted > 0 {
		fmt.Fprintf(&b, "\n  crashes: goalsLost=%d jobsAborted=%d jobsRetried=%d jobsAbandoned=%d goodput=%.3f",
			s.GoalsLost, s.JobsAborted, s.JobsRetried, s.JobsAbandoned, s.Goodput())
	}
	return b.String()
}
