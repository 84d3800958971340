package experiments

import (
	"testing"

	"cwnsim/internal/sim"
)

// blackoutSpec is the examples/scenario configuration: a Poisson stream
// on grid-10x10 losing 25% of its PEs between t=5000 and t=10000.
func blackoutSpec(strat StrategySpec, script string) RunSpec {
	return RunSpec{
		Topo:           Grid(10),
		Workload:       Fib(9),
		Strategy:       strat,
		Arrival:        PoissonArrivals(25, 600),
		Warmup:         1000,
		SampleInterval: 250,
		Scenario:       script,
	}
}

// TestFailureAwareCWNRecoversFaster pins the tentpole's headline: on
// the showcase blackout, CWN subscribing to PEFailed/PERecovered cuts
// the completion-keyed time-to-steady measurably against sentinel-only
// CWN (PR 3 measured ~3k units; the event-driven variant sheds queue at
// failure and backfills at recovery). Deterministic per seed, so the
// comparison is exact, with a ≥10% margin so parameter jitter cannot
// flip it silently.
func TestFailureAwareCWNRecoversFaster(t *testing.T) {
	const script = "fail:pes=25%@t=5000,recover@t=10000"
	base, err := blackoutSpec(CWN(9, 2), script).ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	aware, err := blackoutSpec(StrategySpec{Kind: "cwn", Radius: 9, Horizon: 2, FailureAware: true}, script).ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	if !base.Recovery.Recovered() || !aware.Recovery.Recovered() {
		t.Fatalf("a CWN variant never recovered: base=%v aware=%v",
			base.Recovery.TimeToSteady, aware.Recovery.TimeToSteady)
	}
	if b, a := base.Recovery.TimeToSteady, aware.Recovery.TimeToSteady; float64(a) > 0.9*float64(b) {
		t.Fatalf("failure-aware CWN did not cut recovery time: %d vs sentinel-only %d", a, b)
	}
}

// TestFailureAwareGMGainsRecovery pins the other half of the claim: at
// a rate where the blackout hurts but does not saturate, GM+fa beats
// plain GM on peak tail latency and on the injection-keyed recovery
// time — the keying that isolates what newly arriving jobs saw (GM's
// completion-keyed windows never settle in either mode: its blackout
// stragglers echo to the end of the run, exactly the bias the
// injection keying removes).
func TestFailureAwareGMGainsRecovery(t *testing.T) {
	const script = "fail:pes=25%@t=5000,recover@t=10000"
	run := func(fa bool) *Result {
		spec := blackoutSpec(StrategySpec{Kind: "gm", Low: 1, High: 2, Interval: 20, FailureAware: fa}, script)
		spec.Arrival = PoissonArrivals(80, 400)
		r, err := spec.ExecuteErr()
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	base, aware := run(false), run(true)
	if aware.Recovery.PeakP99 >= base.Recovery.PeakP99 {
		t.Fatalf("GM+fa peak p99 %.0f not below GM's %.0f", aware.Recovery.PeakP99, base.Recovery.PeakP99)
	}
	if !aware.RecoveryInj.Recovered() {
		t.Fatal("GM+fa never recovered in the injection keying")
	}
	if base.RecoveryInj.Recovered() && aware.RecoveryInj.TimeToSteady >= base.RecoveryInj.TimeToSteady {
		t.Fatalf("GM+fa injection-keyed t2s %d not below GM's %d",
			aware.RecoveryInj.TimeToSteady, base.RecoveryInj.TimeToSteady)
	}
	if aware.Makespan >= base.Makespan {
		t.Fatalf("GM+fa makespan %d not below GM's %d", aware.Makespan, base.Makespan)
	}
}

// TestCrashSpecEndToEnd drives the crash op through the declarative
// layer: parse → machine → abort/retry → Result plumbing, with both
// recovery keyings populated.
func TestCrashSpecEndToEnd(t *testing.T) {
	spec := blackoutSpec(CWN(9, 2), "crash:pes=25%@t=5000,recover@t=10000")
	spec.Arrival = PoissonArrivals(25, 300)
	r, err := spec.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	if r.GoalsLost == 0 || r.JobsAborted == 0 {
		t.Fatalf("crash run lost nothing: lost=%d aborted=%d", r.GoalsLost, r.JobsAborted)
	}
	if r.JobsRetried != r.JobsAborted {
		t.Fatalf("JobsRetried %d != JobsAborted %d", r.JobsRetried, r.JobsAborted)
	}
	if r.Stats.JobsDone != 300 {
		t.Fatalf("crash run dropped jobs: %d/300 done", r.Stats.JobsDone)
	}
	if r.Recovery == nil || r.RecoveryInj == nil {
		t.Fatal("recovery reports missing")
	}
	if len(r.Stats.InjSojournWindows.Points) == 0 {
		t.Fatal("injection-keyed window series empty")
	}
}

// TestChaosSpecDeterministic pins the spec-level chaos contract: the
// same chaos scenario string produces bit-identical results, and the
// recovery report reads the EXPANDED timeline (restore time from the
// last generated recover, not the unexpanded generator event at t=0).
func TestChaosSpecDeterministic(t *testing.T) {
	spec := RunSpec{
		Topo:           Grid(4),
		Workload:       Fib(7),
		Strategy:       CWN(9, 2),
		Arrival:        PoissonArrivals(60, 150),
		Warmup:         500,
		SampleInterval: 250,
		Scenario:       "chaos:mtbf=1500:mttr=400:until=8000@seed=9",
	}
	a, err := spec.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Stats.Events != b.Stats.Events || a.GoalsRequeued != b.GoalsRequeued {
		t.Fatalf("chaos spec not deterministic: %d/%d/%d vs %d/%d/%d",
			a.Makespan, a.Stats.Events, a.GoalsRequeued, b.Makespan, b.Stats.Events, b.GoalsRequeued)
	}
	if a.Stats.DownPETime == 0 {
		t.Fatal("chaos generated no downtime")
	}
	if a.Recovery.RestoreAt <= 0 || a.Recovery.RestoreAt == sim.Never {
		t.Fatalf("recovery read the unexpanded script: RestoreAt=%d", a.Recovery.RestoreAt)
	}
}

// TestCrashSweepDeterministic is the regression for the crash victim
// sweep's iteration order: a crash that destroys pending tasks of
// several jobs at once must abort and reinject them in a deterministic
// order (goal-ID order, not map order), or identically-seeded runs
// diverge. This configuration — CWN spreading many jobs' pendings
// across the crashed quarter of the grid — reproduced the divergence
// before the sweep was sorted.
func TestCrashSweepDeterministic(t *testing.T) {
	spec := RunSpec{
		Topo:     Grid(6),
		Workload: Fib(7),
		Strategy: CWN(9, 2),
		Arrival:  PoissonArrivals(20, 120),
		Scenario: "crash:pes=25%@t=500,recover@t=3000",
	}
	var first *Result
	for i := 0; i < 4; i++ {
		r, err := spec.ExecuteErr()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = r
			if r.JobsAborted < 2 {
				t.Fatalf("test premise broken: only %d jobs aborted — the sweep order is not exercised", r.JobsAborted)
			}
			continue
		}
		if r.Makespan != first.Makespan || r.Stats.Events != first.Stats.Events ||
			r.Stats.TotalBusy != first.Stats.TotalBusy || r.GoalsLost != first.GoalsLost {
			t.Fatalf("run %d diverged: makespan %d/%d events %d/%d lost %d/%d",
				i, r.Makespan, first.Makespan, r.Stats.Events, first.Stats.Events, r.GoalsLost, first.GoalsLost)
		}
	}
}
