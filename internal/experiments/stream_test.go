package experiments

import (
	"strings"
	"testing"

	"cwnsim/internal/machine"
	"cwnsim/internal/sim"
	"cwnsim/internal/workload"
)

// TestSingleJobSeedRegression pins single-job mode to the seed's paper
// results: the job-stream refactor must reproduce the pre-refactor
// event sequences bit for bit, which makespan AND total event count
// together witness. Values were recorded from the seed simulator
// (fib(13), seed 1, default config).
func TestSingleJobSeedRegression(t *testing.T) {
	cases := []struct {
		strat    StrategySpec
		topo     TopoSpec
		makespan sim.Time
		events   uint64
	}{
		{CWN(9, 2), Grid(10), 514, 17115},
		{GM(1, 2, 20), Grid(10), 1269, 38422},
		{CWN(5, 1), DLM(10, 5), 326, 12005},
		{GM(1, 1, 20), DLM(10, 5), 820, 27337},
		{ACWN(9, 2, 3, 40), Grid(10), 491, 17764},
	}
	for _, c := range cases {
		r, err := RunSpec{Topo: c.topo, Workload: Fib(13), Strategy: c.strat}.ExecuteErr()
		if err != nil {
			t.Fatalf("%s on %s: %v", c.strat.Label(), c.topo.Label(), err)
		}
		if r.Makespan != c.makespan {
			t.Errorf("%s on %s: makespan=%d, want %d (seed result drifted)",
				c.strat.Label(), c.topo.Label(), r.Makespan, c.makespan)
		}
		if r.Stats.Events != c.events {
			t.Errorf("%s on %s: events=%d, want %d (seed event sequence drifted)",
				c.strat.Label(), c.topo.Label(), r.Stats.Events, c.events)
		}
		if r.Stats.Result != workload.FibValue(13) {
			t.Errorf("%s on %s: result = %d, want fib(13)", c.strat.Label(), c.topo.Label(), r.Stats.Result)
		}
	}
}

func TestExecuteErrOnLostRun(t *testing.T) {
	// A 100-goal chain on one PE needs ~1500 units; MaxTime 50 cannot
	// finish, and a single-job run failing to drain is an error (the
	// seed panicked here).
	spec := RunSpec{
		Topo:     TopoSpec{Kind: "single"},
		Workload: WorkloadSpec{Kind: "chain", N: 100},
		Strategy: StrategySpec{Kind: "local"},
		MaxTime:  50,
	}
	if _, err := spec.ExecuteErr(); err == nil {
		t.Fatal("ExecuteErr returned nil for a run that hit MaxTime")
	}

	// RunAll propagates the failure without crashing, keeps the good
	// run's result, and leaves a nil slot for the bad one.
	good := RunSpec{Topo: Grid(4), Workload: Fib(8), Strategy: CWN(3, 1)}
	results, err := RunAll([]RunSpec{good, spec}, 2)
	if err == nil {
		t.Fatal("RunAll swallowed the failing spec")
	}
	if results[0] == nil || !results[0].Stats.Completed {
		t.Fatal("RunAll dropped the successful run")
	}
	if results[1] != nil {
		t.Fatal("RunAll returned a result for the failed run")
	}
}

func TestExecuteErrRecoversBuilderPanics(t *testing.T) {
	// Unknown kinds and invalid parameters fail validation before
	// anything is built; a sweep gets an error for that run, not a
	// process crash.
	bad := []RunSpec{
		{Topo: Grid(4), Workload: Fib(8), Strategy: StrategySpec{Kind: "no-such"}},
		{Topo: Grid(4), Workload: Fib(8), Strategy: CWN(3, 1), Arrival: ArrivalSpec{Kind: "interval", Gap: 0, Jobs: 5}},
		{Topo: Grid(4), Workload: Fib(8), Strategy: CWN(3, 1), Warmup: 10, MaxTime: 5},
	}
	results, err := RunAll(bad, 2)
	if err == nil {
		t.Fatal("RunAll returned nil error for all-bad specs")
	}
	for i, r := range results {
		if r != nil {
			t.Errorf("bad spec %d produced a result", i)
		}
	}
}

func TestStreamSpecExecutes(t *testing.T) {
	spec := RunSpec{
		Topo:     Grid(5),
		Workload: Fib(8),
		Strategy: CWN(3, 1),
		Arrival:  PoissonArrivals(50, 30),
		Warmup:   200,
	}
	r, err := spec.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	if r.JobsDone != 30 {
		t.Fatalf("Jobs = %d, want 30", r.JobsDone)
	}
	if r.SojournP99() < r.SojournP50() || r.SojournP50() <= 0 {
		t.Fatalf("implausible sojourn percentiles: p50=%f p99=%f", r.SojournP50(), r.SojournP99())
	}
	if r.Throughput() <= 0 {
		t.Fatalf("Throughput = %f, want > 0", r.Throughput())
	}
	if !strings.Contains(spec.Name(), "poisson") {
		t.Fatalf("stream run name %q does not mention its arrival process", spec.Name())
	}

	// Same seed, same spec: identical latency numbers.
	r2, err := spec.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	if r.SojournP99() != r2.SojournP99() || r.Makespan != r2.Makespan {
		t.Fatalf("stream run not deterministic: p99 %f vs %f", r.SojournP99(), r2.SojournP99())
	}
}

// droppingStrategy loses every spawned goal, stalling the machine.
type droppingStrategy struct{}

func (droppingStrategy) Name() string { return "dropper" }
func (droppingStrategy) NewNode(*machine.PE) machine.NodeStrategy {
	return dropperNode{}
}

type dropperNode struct{}

func (dropperNode) HandleEvent(machine.Event) {}

func TestStalledStreamIsAnError(t *testing.T) {
	_, err := RunSpec{
		Label:    "dropper",
		Topo:     TopoSpec{Kind: "single"},
		Workload: Fib(8),
		Arrival:  IntervalArrivals(100, 3),
		MaxTime:  20_000,
	}.execute(droppingStrategy{})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("lost-goal stream returned %v, want a stalled error", err)
	}
}

func TestSaturatedStreamIsNotAnError(t *testing.T) {
	spec := RunSpec{
		Topo:     TopoSpec{Kind: "single"},
		Workload: Fib(8),
		Strategy: StrategySpec{Kind: "local"},
		Arrival:  IntervalArrivals(10, 500),
		MaxTime:  3000,
	}
	r, err := spec.ExecuteErr()
	if err != nil {
		t.Fatalf("saturated stream returned error: %v", err)
	}
	if !r.Saturated() {
		t.Fatal("overloaded single PE did not saturate")
	}
	if r.Stats.JobsDone >= r.Stats.JobsInjected {
		t.Fatal("saturation without a backlog")
	}
}

func TestParseArrival(t *testing.T) {
	cases := []struct {
		in   string
		want ArrivalSpec
	}{
		{"single", SingleArrival()},
		{"interval:100:50", IntervalArrivals(100, 50)},
		{"poisson:62.5:200", PoissonArrivals(62.5, 200)},
		{"burst:20:500:4", BurstArrivals(20, 500, 4)},
	}
	for _, c := range cases {
		got, err := ParseArrival(c.in)
		if err != nil {
			t.Errorf("ParseArrival(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseArrival(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "poisson", "poisson:x:5", "poisson:0:5", "poisson:-3:5",
		"poisson:NaN:10", "poisson:+Inf:10",
		"interval:100", "interval:0:10", "burst:1:2", "burst:5:0:2", "single:100:50", "warp:9"} {
		if _, err := ParseArrival(bad); err == nil {
			t.Errorf("ParseArrival(%q) succeeded, want error", bad)
		}
	}
}
