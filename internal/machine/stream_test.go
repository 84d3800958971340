package machine

import (
	"math"
	"testing"

	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// runStream builds and runs a stream machine on a single PE with the
// keep-local strategy — the simplest deterministic server.
func runStream(t *testing.T, src JobSource, cfg Config) *Stats {
	t.Helper()
	return NewStream(topology.NewSingle(), src, keepLocal{}, cfg).Run()
}

func injectionTimes(st *Stats) []sim.Time {
	out := make([]sim.Time, len(st.JobRecords))
	for i, r := range st.JobRecords {
		out[i] = r.InjectedAt
	}
	return out
}

func TestPoissonArrivalsDeterministicPerSeed(t *testing.T) {
	tree := workload.NewFib(5)
	cfg := DefaultConfig()
	cfg.Seed = 42

	a := runStream(t, NewPoisson(tree, 100, 20), cfg)
	b := runStream(t, NewPoisson(tree, 100, 20), cfg)
	if !a.Completed || !b.Completed {
		t.Fatal("streams did not drain")
	}
	ta, tb := injectionTimes(a), injectionTimes(b)
	if len(ta) != 20 {
		t.Fatalf("completed %d jobs, want 20", len(ta))
	}
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("injection %d differs across identical seeds: %d vs %d", i, ta[i], tb[i])
		}
	}

	cfg.Seed = 43
	c := runStream(t, NewPoisson(tree, 100, 20), cfg)
	tc := injectionTimes(c)
	same := true
	for i := range ta {
		if ta[i] != tc[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical Poisson arrival times")
	}
}

func TestPoissonArrivalsDoNotPerturbEngineStream(t *testing.T) {
	// The arrival process draws from its own seeded stream: a machine's
	// engine must consume the exact same random sequence whether the
	// source drew arrival gaps or not. Compare a fresh engine's draws
	// against one belonging to a machine whose Poisson source has
	// already emitted jobs.
	tree := workload.NewFib(3)
	cfg := DefaultConfig()
	cfg.StaggerTicks = false // no construction-time draws
	m := NewStream(topology.NewSingle(), NewPoisson(tree, 50, 5), keepLocal{}, cfg)
	m.Run()
	got := m.Engine().Rng().Int63()
	want := sim.NewEngine(cfg.Seed).Rng().Int63()
	if got != want {
		t.Fatalf("engine stream perturbed by arrival draws: %d vs %d", got, want)
	}
}

func TestFixedIntervalSojournAccounting(t *testing.T) {
	tree := workload.NewFib(5)
	cfg := DefaultConfig()

	// Reference: one job alone takes exactly this long on one PE.
	solo := New(topology.NewSingle(), tree, keepLocal{}, cfg).Run()
	if !solo.Completed {
		t.Fatal("reference run did not complete")
	}
	soloTime := solo.Makespan

	// A gap wider than the service time means no queueing between jobs:
	// every sojourn equals the solo makespan exactly.
	const jobs = 7
	gap := soloTime + 10
	st := runStream(t, NewFixedInterval(tree, gap, jobs), cfg)
	if !st.Completed {
		t.Fatal("stream did not drain")
	}
	if st.JobsInjected != jobs || st.JobsDone != jobs {
		t.Fatalf("jobs injected/done = %d/%d, want %d/%d", st.JobsInjected, st.JobsDone, jobs, jobs)
	}
	if len(st.JobRecords) != jobs {
		t.Fatalf("JobRecords = %d, want %d", len(st.JobRecords), jobs)
	}
	for i, r := range st.JobRecords {
		if want := sim.Time(i) * gap; r.InjectedAt != want {
			t.Errorf("job %d injected at %d, want %d", i, r.InjectedAt, want)
		}
		if r.Sojourn() != soloTime {
			t.Errorf("job %d sojourn = %d, want %d (uncontended)", i, r.Sojourn(), soloTime)
		}
		if r.Result != workload.FibValue(5) {
			t.Errorf("job %d result = %d, want %d", i, r.Result, workload.FibValue(5))
		}
	}
	if st.Sojourn.N() != jobs {
		t.Fatalf("Sojourn sample n = %d, want %d", st.Sojourn.N(), jobs)
	}
	if got, want := st.Sojourn.Mean(), float64(soloTime); got != want {
		t.Errorf("mean sojourn = %f, want %f", got, want)
	}
	if got := st.SojournP99(); got != float64(soloTime) {
		t.Errorf("p99 sojourn = %f, want %f", got, float64(soloTime))
	}
	// An overlapping stream must queue: sojourns strictly above solo.
	tight := runStream(t, NewFixedInterval(tree, soloTime/2, jobs), cfg)
	if tight.SojournP99() <= float64(soloTime) {
		t.Errorf("overlapping stream p99 = %f, want > %d (queueing)", tight.SojournP99(), soloTime)
	}
	if tight.Makespan <= st.Makespan/2 {
		t.Errorf("tight stream finished implausibly early: %d", tight.Makespan)
	}
}

func TestBurstArrivalsLandTogether(t *testing.T) {
	tree := workload.NewFib(3)
	cfg := DefaultConfig()
	st := runStream(t, NewBurst(tree, 3, 1000, 2), cfg)
	if !st.Completed {
		t.Fatal("stream did not drain")
	}
	if st.JobsInjected != 6 {
		t.Fatalf("JobsInjected = %d, want 6", st.JobsInjected)
	}
	times := injectionTimes(st)
	for i, want := range []sim.Time{0, 0, 0, 1000, 1000, 1000} {
		if times[i] != want {
			t.Fatalf("injection times = %v, want bursts at 0 and 1000", times)
		}
	}
}

func TestWarmupExcludesEarlyJobs(t *testing.T) {
	tree := workload.NewFib(5)
	cfg := DefaultConfig()
	const jobs = 10
	const gap = 500
	cfg.Warmup = 2*gap + 1 // jobs 0..2 injected before the cutoff

	st := runStream(t, NewFixedInterval(tree, gap, jobs), cfg)
	if !st.Completed {
		t.Fatal("stream did not drain")
	}
	if st.Sojourn.N() != jobs {
		t.Fatalf("Sojourn n = %d, want %d (all jobs)", st.Sojourn.N(), jobs)
	}
	if st.SteadySojourn.N() != jobs-3 {
		t.Fatalf("SteadySojourn n = %d, want %d (warm-up excluded)", st.SteadySojourn.N(), jobs-3)
	}
	if u := st.SteadyUtilization(); u <= 0 || u > 1 {
		t.Fatalf("SteadyUtilization = %f, want in (0,1]", u)
	}
}

func TestSaturatedStreamReportsIncomplete(t *testing.T) {
	// One PE served a new job every 10 units needs far more than 10
	// units per job: the stream outruns the machine and the run must
	// stop at MaxTime with jobs in flight, not crash.
	tree := workload.NewFib(5)
	cfg := DefaultConfig()
	cfg.MaxTime = 2000
	st := runStream(t, NewFixedInterval(tree, 10, 1000), cfg)
	if st.Completed {
		t.Fatal("saturated stream reported complete")
	}
	if st.JobsDone >= st.JobsInjected {
		t.Fatalf("jobs done %d >= injected %d under saturation", st.JobsDone, st.JobsInjected)
	}
	if st.Makespan != cfg.MaxTime {
		t.Fatalf("saturated makespan = %d, want horizon %d", st.Makespan, cfg.MaxTime)
	}
}

// dropGoals loses every spawned child goal: the buggy-strategy case
// stall detection exists for.
type dropGoals struct{}

func (dropGoals) Name() string                { return "drop" }
func (dropGoals) Setup(*Machine)              {}
func (dropGoals) NewNode(pe *PE) NodeStrategy { return dropNode{} }

type dropNode struct{}

func (dropNode) HandleEvent(Event) {} // every goal dropped on the floor

func TestLostGoalReportsStalledNotSaturated(t *testing.T) {
	tree := workload.NewFib(5)
	cfg := DefaultConfig()
	cfg.MaxTime = 10_000
	st := NewStream(topology.NewSingle(), NewFixedInterval(tree, 50, 3), dropGoals{}, cfg).Run()
	if st.Completed {
		t.Fatal("run with dropped goals completed")
	}
	if !st.Stalled {
		t.Fatal("lost goals not flagged as stalled")
	}

	// Genuine saturation — work still queued at the horizon — must NOT
	// be flagged as a stall.
	sat := runStream(t, NewFixedInterval(tree, 10, 1000), Config{
		Seed: 1, GrainTime: 10, CombineTime: 5, GoalHopTime: 2, RespHopTime: 2,
		CtrlHopTime: 1, LoadInterval: 20, MaxTime: 2000,
	})
	if sat.Completed || sat.Stalled {
		t.Fatalf("saturated run: completed=%v stalled=%v, want false/false", sat.Completed, sat.Stalled)
	}
}

func TestEmptySteadySampleIsNaNNotZero(t *testing.T) {
	tree := workload.NewFib(5)
	cfg := DefaultConfig()
	cfg.Warmup = 1_000_000 // past any plausible completion
	st := runStream(t, NewFixedInterval(tree, 100, 3), cfg)
	if st.SteadySojourn.N() != 0 {
		t.Fatalf("steady sample n = %d, want 0", st.SteadySojourn.N())
	}
	for name, v := range map[string]float64{
		"mean": st.MeanSojourn(), "p50": st.SojournP50(), "p99": st.SojournP99(),
	} {
		if !math.IsNaN(v) {
			t.Errorf("%s sojourn of empty steady sample = %f, want NaN", name, v)
		}
	}
}

func TestSingleJobSourceMatchesNew(t *testing.T) {
	// New(tree) and NewStream(SingleJob(tree)) are the same machine:
	// identical makespan, event count and stats labels.
	tree := workload.NewFib(8)
	cfg := DefaultConfig()
	a := New(topology.NewSingle(), tree, keepLocal{}, cfg).Run()
	b := runStream(t, NewSingleJob(tree), cfg)
	if a.Makespan != b.Makespan || a.Events != b.Events || a.Result != b.Result {
		t.Fatalf("single-job stream diverged: makespan %d/%d events %d/%d result %d/%d",
			a.Makespan, b.Makespan, a.Events, b.Events, a.Result, b.Result)
	}
	if a.Workload != b.Workload {
		t.Fatalf("workload label %q vs %q", a.Workload, b.Workload)
	}
	if b.JobsDone != 1 || len(b.JobRecords) != 1 || b.JobRecords[0].Sojourn() != b.Makespan {
		t.Fatalf("single job record wrong: %+v", b.JobRecords)
	}
}
