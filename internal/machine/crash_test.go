package machine

import (
	"testing"

	"cwnsim/internal/scenario"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// TestCrashLosesStateAndRetries pins the state-loss semantics on the
// simplest machine: all work piled on PE 0, which crashes mid-run. The
// queued and in-flight goals and the pending tasks vanish (GoalsLost),
// the one affected job aborts and retries from its root on the live
// neighbor, and the final result is still correct.
func TestCrashLosesStateAndRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scenario = scenario.MustParse("crash:pes=0@t=35,recover@t=400")
	tree := workload.NewFib(6)
	st := New(topology.NewGrid(1, 2), tree, keepLocal{}, cfg).Run()
	if !st.Completed {
		t.Fatalf("crash run did not complete: %d/%d jobs", st.JobsDone, st.JobsInjected)
	}
	if st.Result != workload.FibValue(6) {
		t.Fatalf("Result = %d, want fib(6) = %d", st.Result, workload.FibValue(6))
	}
	if st.GoalsLost == 0 {
		t.Fatal("no goals lost by the crash")
	}
	if st.JobsAborted != 1 || st.JobsRetried != 1 {
		t.Fatalf("JobsAborted/JobsRetried = %d/%d, want 1/1", st.JobsAborted, st.JobsRetried)
	}
	if st.ServiceAborts != 1 {
		t.Fatalf("ServiceAborts = %d, want 1 (the goal in service at t=35)", st.ServiceAborts)
	}
	if st.DownPETime != 400-35 {
		t.Fatalf("DownPETime = %d, want %d", st.DownPETime, 400-35)
	}
	// Nothing was evacuated — a crash destroys, it does not requeue.
	if st.GoalsRequeued != 0 {
		t.Fatalf("GoalsRequeued = %d, want 0 for a crash", st.GoalsRequeued)
	}
	// The retry kept the job's original injection time, so the sojourn
	// bills the failed attempt: the job completes well after the crash
	// but its record still starts at t=0.
	rec := st.JobRecords[0]
	if rec.InjectedAt != 0 {
		t.Fatalf("retried job's InjectedAt = %d, want 0", rec.InjectedAt)
	}
	if rec.Sojourn() <= 35 {
		t.Fatalf("Sojourn = %d, want > 35 (the lost attempt is billed)", rec.Sojourn())
	}
}

// TestCrashStreamCorrectness drives a stream whose goals cross PEs
// through repeated crashes: every job must still deliver the correct
// result — stale responses are dropped, not mis-integrated — and every
// abort must be matched by a retry.
func TestCrashStreamCorrectness(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scenario = scenario.MustParse("crash:pes=1@t=300,recover@t=800,crash:pes=2@t=1500,recover@t=2000")
	tree := workload.NewFib(7)
	st := NewStream(topology.NewGrid(1, 3), NewFixedInterval(tree, 150, 20), pushRight{}, cfg).Run()
	if !st.Completed {
		t.Fatalf("stream did not drain: %d/%d", st.JobsDone, st.JobsInjected)
	}
	if st.JobsDone != 20 {
		t.Fatalf("JobsDone = %d, want 20", st.JobsDone)
	}
	want := workload.FibValue(7)
	for _, r := range st.JobRecords {
		if r.Result != want {
			t.Fatalf("job %d computed %d, want %d — a stale response was integrated", r.ID, r.Result, want)
		}
	}
	if st.JobsAborted == 0 {
		t.Fatal("no jobs aborted across two crashes of busy PEs")
	}
	if st.JobsRetried != st.JobsAborted {
		t.Fatalf("JobsRetried = %d != JobsAborted = %d", st.JobsRetried, st.JobsAborted)
	}
}

// TestCrashVersusFail pins the defining difference of the two fault
// modes on the same script shape: a blackout loses nothing (goals
// evacuate), a crash loses state and aborts jobs.
func TestCrashVersusFail(t *testing.T) {
	run := func(op string) *Stats {
		cfg := DefaultConfig()
		cfg.Scenario = scenario.MustParse(op + ":pes=0@t=35,recover@t=400")
		return New(topology.NewGrid(1, 2), workload.NewFib(6), keepLocal{}, cfg).Run()
	}
	fail, crash := run("fail"), run("crash")
	if fail.GoalsLost != 0 || fail.JobsAborted != 0 {
		t.Fatalf("blackout lost state: lost=%d aborted=%d", fail.GoalsLost, fail.JobsAborted)
	}
	if fail.GoalsRequeued == 0 {
		t.Fatal("blackout evacuated nothing")
	}
	if crash.GoalsLost == 0 || crash.JobsAborted == 0 {
		t.Fatalf("crash lost nothing: lost=%d aborted=%d", crash.GoalsLost, crash.JobsAborted)
	}
	if crash.Result != fail.Result {
		t.Fatalf("fault modes disagree on the result: %d vs %d", crash.Result, fail.Result)
	}
}

// TestCrashingEveryPERejected pins the same guard for crashes: a single
// all-PE crash and crashes that together leave no PE live are both
// refused at construction.
func TestCrashingEveryPERejected(t *testing.T) {
	for _, script := range []string{"crash:pes=100%@t=10", "crash:pes=0@t=10,crash:pes=1@t=20"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("constructing a machine with %q did not panic", script)
				}
			}()
			cfg := DefaultConfig()
			cfg.Scenario = scenario.MustParse(script)
			New(topology.NewGrid(1, 2), workload.NewChain(50), keepLocal{}, cfg)
		}()
	}
}

// TestCrashDeterministicPerSeed runs the same crash scenario twice and
// demands identical fingerprints: abort/retry adds no hidden
// nondeterminism (victim collection is in deterministic encounter
// order).
func TestCrashDeterministicPerSeed(t *testing.T) {
	run := func() fingerprint {
		cfg := DefaultConfig()
		cfg.Scenario = scenario.MustParse("crash:pes=25%@t=500,recover@t=1500")
		tree := workload.NewFib(6)
		return fp(NewStream(topology.NewGrid(2, 2), NewPoisson(tree, 50, 50), pushRight{}, cfg).Run())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("crash run not deterministic: %+v vs %+v", a, b)
	}
}

// TestChaosScenarioRuns drives a generated failure timeline end to end:
// the machine expands the chaos spec deterministically and the stream
// drains through every generated blackout.
func TestChaosScenarioRuns(t *testing.T) {
	run := func() (*Stats, *scenario.Script, fingerprint) {
		cfg := DefaultConfig()
		cfg.Scenario = scenario.MustParse("chaos:mtbf=500:mttr=200:until=5000@seed=3")
		tree := workload.NewFib(4)
		m := NewStream(topology.NewGrid(2, 2), NewFixedInterval(tree, 100, 30), keepLocal{}, cfg)
		st := m.Run()
		return st, m.ScenarioScript(), fp(st)
	}
	st, script, f1 := run()
	if !st.Completed {
		t.Fatal("chaos stream did not drain")
	}
	if st.DownPETime == 0 {
		t.Fatal("chaos generated no downtime")
	}
	if len(script.Events) == 0 || script.Events[0].Kind == scenario.Chaos {
		t.Fatalf("ScenarioScript not expanded: %v", script)
	}
	if _, _, f2 := run(); f1 != f2 {
		t.Fatalf("chaos run not deterministic: %+v vs %+v", f1, f2)
	}
}

// TestCrashChaosScenarioRuns is the crash-mode chaos variant: state
// loss with random timing must still deliver every job, correctly.
func TestCrashChaosScenarioRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scenario = scenario.MustParse("chaos:mtbf=400:mttr=150:until=4000:crash@seed=11")
	tree := workload.NewFib(5)
	st := NewStream(topology.NewGrid(2, 2), NewFixedInterval(tree, 120, 25), pushRight{}, cfg).Run()
	if !st.Completed {
		t.Fatalf("crash-chaos stream did not drain: %d/%d", st.JobsDone, st.JobsInjected)
	}
	want := workload.FibValue(5)
	for _, r := range st.JobRecords {
		if r.Result != want {
			t.Fatalf("job %d computed %d, want %d", r.ID, r.Result, want)
		}
	}
}
