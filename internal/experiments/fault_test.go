package experiments

import (
	"fmt"
	"testing"
)

// faultGateSpec puts every piece of the PR 10 fault stack — domain-shaped
// crash chaos, periodic checkpoints, a bounded retry budget — in one
// small pinned script.
func faultGateSpec() RunSpec {
	return RunSpec{
		Topo:           Grid(4),
		Workload:       Fib(9),
		Strategy:       CWN(9, 2),
		Arrival:        IntervalArrivals(100, 60),
		Scenario:       "chaos:mtbf=1500:mttr=400:crash:domain=rack:4@seed=11,checkpoint:every=400:cost=1@t=0",
		RetryLimit:     1,
		RetryBackoff:   25,
		SampleInterval: 200,
	}
}

// TestShardScenarioCrossCheck is the scenario agreement gate: on a
// scripted spec whose crashes make outcomes placement-dependent,
// parallel must reproduce serial replay, and the bounded-retry ledger
// must balance machine-wide at every shard count.
func TestShardScenarioCrossCheck(t *testing.T) {
	if err := scenarioCrossCheck(faultGateSpec(), 4); err != nil {
		t.Fatal(err)
	}
}

// ckptSweepSpec is the pinned crash workload the checkpoint-interval
// sweep reruns per interval: a 16-PE grid under a steady stream, 25%
// of the machine crashing four times with a one-retry budget. Tight
// enough that replay position matters (long intervals re-lose work,
// jobs caught mid-replay by the next crash exhaust their budget) and
// busy enough that per-tick snapshot cost is visible.
func ckptSweepSpec() RunSpec {
	return RunSpec{
		Topo:         Grid(4),
		Workload:     Fib(11),
		Strategy:     CWN(9, 2),
		Arrival:      IntervalArrivals(150, 40),
		Scenario:     "crash:pes=25%@t=1500,recover@t=1700,crash:pes=25%@t=3000,recover@t=3200,crash:pes=25%@t=4500,recover@t=4700,crash:pes=25%@t=6000,recover@t=6200",
		RetryLimit:   1,
		RetryBackoff: 25,
	}
}

// ckptIntervals pins the sweep points: none, the over-frequent endpoint
// (every 20 units at 6 cost — a ~30% service tax), and three mid
// intervals at the scripted cost of 2.
var ckptIntervals = []struct{ every, cost int64 }{
	{0, 0}, {20, 6}, {200, 2}, {300, 2}, {400, 2},
}

// TestCheckpointIntervalTradeoff pins the checkpoint U-curve on goodput:
// some mid interval must strictly beat both no checkpointing (replay
// from the root leaves retries mid-flight when the next strike lands)
// and the over-frequent endpoint (whose snapshot cost taxes every live
// PE's service), so both failure modes stay measurable.
func TestCheckpointIntervalTradeoff(t *testing.T) {
	base := ckptSweepSpec()
	goodput := make([]float64, len(ckptIntervals))
	for i, p := range ckptIntervals {
		s := base
		if p.every > 0 {
			s.Scenario = fmt.Sprintf("%s,checkpoint:every=%d:cost=%d@t=0", base.Scenario, p.every, p.cost)
		}
		r, err := s.ExecuteErr()
		if err != nil {
			t.Fatalf("interval %d: %v", p.every, err)
		}
		goodput[i] = r.Stats.Goodput()
		t.Logf("every=%d cost=%d goodput=%.4f", p.every, p.cost, goodput[i])
	}
	none, overfreq := goodput[0], goodput[1]
	for _, g := range goodput[2:] {
		if g > none && g > overfreq {
			return
		}
	}
	t.Fatalf("no mid interval beat both endpoints: none %.4f, over-frequent %.4f, mids %v", none, overfreq, goodput[2:])
}

// TestShardChaosSoak10k is the CI race smoke for the sharded fault
// stack at scale: a 10,000-PE implicit torus under domain-shaped crash
// chaos with checkpoints and a bounded retry budget, run at Shards=4 —
// four real shard goroutines crossing op barriers, crash purges,
// snapshot walks and retry re-injections while the race detector
// watches. The horizon is short — the 10,000 load tickers dominate
// wall time, so the chaos cadence is compressed to keep strikes landing
// inside it (-short, the CI race configuration, compresses further);
// the long-soak version of this machine is BenchmarkScale's
// chaos-torus100-soak case.
func TestShardChaosSoak10k(t *testing.T) {
	spec := RunSpec{
		Topo:         Torus(100),
		Workload:     Fib(9),
		Strategy:     StrategySpec{Kind: "cwn", Radius: 5, Horizon: 2, FailureAware: true},
		Arrival:      PoissonArrivals(40, 25),
		Warmup:       100,
		MaxTime:      600,
		Scenario:     "chaos:mtbf=150:mttr=60:crash:domain=block:4x4@seed=5,checkpoint:every=100:cost=1@t=0",
		RetryLimit:   2,
		RetryBackoff: 20,
		Shards:       4,
	}
	if testing.Short() {
		spec.MaxTime = 150
		spec.Warmup = 40
		spec.Arrival = PoissonArrivals(40, 8)
		spec.Scenario = "chaos:mtbf=40:mttr=20:crash:domain=block:4x4@seed=5,checkpoint:every=30:cost=1@t=0"
	}
	r, err := spec.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats
	if st.Events == 0 || st.JobsInjected == 0 {
		t.Fatalf("soak ran nothing: %d events, %d jobs injected", st.Events, st.JobsInjected)
	}
	if st.JobsRetried+st.JobsAbandoned != st.JobsAborted {
		t.Fatalf("retry ledger unbalanced: retried %d + abandoned %d != aborted %d",
			st.JobsRetried, st.JobsAbandoned, st.JobsAborted)
	}
	if g := st.Goodput(); g < 0 || g > 1 {
		t.Fatalf("goodput %v out of [0,1]", g)
	}
}
