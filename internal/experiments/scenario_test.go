package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"cwnsim/internal/sim"
)

// TestBlackoutAcceptance drives the subsystem's acceptance scenario —
// fail 25% of the PEs at t=T, recover at 2T, Poisson arrivals — through
// CWN, the Gradient Model and WorkSteal: every run must execute
// deterministically, drain (or honestly saturate, never stall), and
// report recovery metrics in the Result.
func TestBlackoutAcceptance(t *testing.T) {
	const T = 4000
	strategies := []StrategySpec{
		CWN(9, 2),
		GM(1, 2, 20),
		{Kind: "worksteal", Interval: 20, Threshold: 2},
	}
	var requeuedTotal int64
	for _, ss := range strategies {
		spec := RunSpec{
			Topo:           Grid(6),
			Workload:       Fib(8),
			Strategy:       ss,
			Arrival:        PoissonArrivals(12, 800),
			Warmup:         500,
			SampleInterval: 200,
			Scenario:       "fail:pes=25%@t=4000,recover@t=8000",
		}
		a, err := spec.ExecuteErr()
		if err != nil {
			t.Fatalf("%s: %v", ss.Label(), err)
		}
		b, err := spec.ExecuteErr()
		if err != nil {
			t.Fatalf("%s (rerun): %v", ss.Label(), err)
		}
		if a.Makespan != b.Makespan || a.Stats.Events != b.Stats.Events ||
			a.GoalsRequeued != b.GoalsRequeued || a.SojournP99() != b.SojournP99() {
			t.Errorf("%s: blackout run not deterministic: makespan %d/%d events %d/%d requeued %d/%d",
				ss.Label(), a.Makespan, b.Makespan, a.Stats.Events, b.Stats.Events, a.GoalsRequeued, b.GoalsRequeued)
		}
		if a.Stats.Stalled {
			t.Errorf("%s: blackout run stalled", ss.Label())
		}
		if a.Stats.DownPETime != sim.Time(9)*T { // 9 PEs (25% of 36) down for T units
			t.Errorf("%s: DownPETime = %d, want %d", ss.Label(), a.Stats.DownPETime, 9*T)
		}
		rec := a.Recovery
		if rec == nil {
			t.Fatalf("%s: no recovery report on a sampled scenario run", ss.Label())
		}
		if rec.DisruptAt != T || rec.RestoreAt != 2*T {
			t.Errorf("%s: recovery brackets %d..%d, want %d..%d", ss.Label(), rec.DisruptAt, rec.RestoreAt, T, 2*T)
		}
		if rec.GoalsRequeued != a.GoalsRequeued {
			t.Errorf("%s: Stats.GoalsRequeued %d != Recovery.GoalsRequeued %d", ss.Label(), a.GoalsRequeued, rec.GoalsRequeued)
		}
		if 100*a.EffectiveUtilization() < a.UtilizationPercent() {
			t.Errorf("%s: effective util %.2f%% < util %.2f%% despite 9 dead PEs", ss.Label(), 100*a.EffectiveUtilization(), a.UtilizationPercent())
		}
		if a.Stats.SojournWindows.Len() == 0 || a.Stats.QueueImbalance.Len() == 0 {
			t.Errorf("%s: recovery series empty (windows=%d imbalance=%d)",
				ss.Label(), a.Stats.SojournWindows.Len(), a.Stats.QueueImbalance.Len())
		}
		requeuedTotal += a.GoalsRequeued
	}
	if requeuedTotal == 0 {
		t.Error("no strategy requeued a single goal through a 25% blackout under load")
	}
}

// TestScenarioSpecConfigWiring checks the spec plumbing: an empty
// scenario string builds a nil script (the bit-for-bit-identical empty
// scenario), a non-empty one parses into the machine config, and the
// run name carries the script.
func TestScenarioSpecConfigWiring(t *testing.T) {
	plain := RunSpec{Topo: Grid(4), Workload: Fib(8), Strategy: CWN(3, 1)}
	if cfg := plain.Config(); cfg.Scenario != nil {
		t.Fatal("empty scenario string produced a script")
	}

	scripted := plain
	scripted.Scenario = "fail:pes=50%@t=100,recover@t=200"
	cfg := scripted.Config()
	if cfg.Scenario.Empty() || len(cfg.Scenario.Events) != 2 {
		t.Fatalf("scenario not wired into config: %+v", cfg.Scenario)
	}
	if !strings.Contains(scripted.Name(), "fail:pes=50%@t=100") {
		t.Fatalf("run name %q omits the scenario", scripted.Name())
	}
}

// TestScenarioSpecErrors: malformed scripts and scripts that cannot
// apply to the machine fail their own run with an error, not a crash.
func TestScenarioSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"garbage",
		"fail:pes=25%",          // no time
		"fail:pes=99@t=10",      // PE out of range on a 4x4 grid
		"slow:pes=0:x=0@t=10",   // zero speed
		"droplink:a=0:b=5@t=10", // not neighbors on the grid
		"fail:pes=100%@t=10",    // guaranteed to kill the last live PE
	} {
		spec := RunSpec{Topo: Grid(4), Workload: Fib(8), Strategy: CWN(3, 1), Scenario: bad}
		if _, err := spec.ExecuteErr(); err == nil {
			t.Errorf("scenario %q executed, want error", bad)
		}
	}
}

// TestScenarioSurvivesJSON: the scenario rides RunSpec serialization,
// so spec files and saved sweeps can carry scripted environments.
func TestScenarioSurvivesJSON(t *testing.T) {
	spec := RunSpec{
		Topo: Grid(4), Workload: Fib(8), Strategy: CWN(3, 1),
		Scenario: "fail:pes=25%@t=5000,recover@t=10000",
	}
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back RunSpec
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scenario != spec.Scenario {
		t.Fatalf("scenario lost in JSON: %q", back.Scenario)
	}
	// And a plain spec's JSON does not mention it at all.
	plain, _ := json.Marshal(RunSpec{Topo: Grid(4), Workload: Fib(8), Strategy: CWN(3, 1)})
	if strings.Contains(string(plain), "scenario") {
		t.Fatalf("empty scenario leaks into JSON: %s", plain)
	}
}
