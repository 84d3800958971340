package experiments

import "testing"

// faultGateSpec mirrors the cmd/bench scenario agreement gate: every
// piece of the PR 10 fault stack — domain-shaped crash chaos, periodic
// checkpoints, a bounded retry budget — in one small pinned script.
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

// TestShardScenarioCrossCheck is the tree's own copy of the cmd/bench
// scenario agreement gate: on a scripted spec whose crashes make
// outcomes placement-dependent, parallel must reproduce serial replay,
// and the bounded-retry ledger must balance machine-wide at every shard
// count.
func TestShardScenarioCrossCheck(t *testing.T) {
	if err := ScenarioCrossCheck(faultGateSpec(), 4); err != nil {
		t.Fatal(err)
	}
}

// TestShardChaosSoak10k is the CI race smoke for the sharded fault
// stack at scale: a 10,000-PE implicit torus under domain-shaped crash
// chaos with checkpoints and a bounded retry budget, run at Shards=4 —
// four real shard goroutines crossing op barriers, crash purges,
// snapshot walks and retry re-injections while the race detector
// watches. The horizon is short — the 10,000 load tickers dominate
// wall time, so the chaos cadence is compressed to keep strikes landing
// inside it (-short, the CI race configuration, compresses further);
// the long-soak version of this machine is cmd/bench's
// open/chaos-torus100-soak family.
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
