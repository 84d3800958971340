package machine_test

import (
	"testing"

	"cwnsim/internal/core"
	"cwnsim/internal/machine"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

func run(t *testing.T, topo *topology.Topology, tree *workload.Tree, strat machine.Strategy, mut func(*machine.Config)) *machine.Stats {
	t.Helper()
	cfg := machine.DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	st := machine.New(topo, tree, strat, cfg).Run()
	if !st.Completed {
		t.Fatalf("%s on %s (%s): did not complete", strat.Name(), topo.Name(), tree.Name)
	}
	return st
}

// checkConservation asserts the invariants every correct run satisfies.
func checkConservation(t *testing.T, st *machine.Stats, tree *workload.Tree) {
	t.Helper()
	goals := int64(tree.Count())
	if st.GoalsExecuted != goals {
		t.Errorf("GoalsExecuted = %d, want %d (every goal exactly once)", st.GoalsExecuted, goals)
	}
	if st.RespIntegrated != goals-1 {
		t.Errorf("RespIntegrated = %d, want %d", st.RespIntegrated, goals-1)
	}
	if st.GoalHops.Total() != goals {
		t.Errorf("hop histogram total = %d, want %d", st.GoalHops.Total(), goals)
	}
	if want := tree.Eval(); st.Result != want {
		t.Errorf("Result = %d, want %d (simulation must compute the program's value)", st.Result, want)
	}
	if u := st.Utilization(); u <= 0 || u > 1.0000001 {
		t.Errorf("Utilization = %f out of (0,1]", u)
	}
	if st.MaxChannelUtilization() > 1.0000001 {
		t.Errorf("channel utilization %f > 1", st.MaxChannelUtilization())
	}
}

func TestCWNOnGrid(t *testing.T) {
	tree := workload.NewFib(10)
	strat := core.NewCWN(4, 2)
	st := run(t, topology.NewGrid(4, 4), tree, strat, nil)
	checkConservation(t, st, tree)

	// Radius bound: no goal travels more than 4 hops.
	if st.GoalHops.Max() > 4 {
		t.Errorf("goal travelled %d hops > radius 4", st.GoalHops.Max())
	}
	// Horizon: a goal stops only at >= 2 hops (except the root, which is
	// injected at hop 0 and never placed by the strategy).
	if st.GoalHops.Count(0) != 1 {
		t.Errorf("%d goals at 0 hops, want 1 (the root)", st.GoalHops.Count(0))
	}
	if st.GoalHops.Count(1) != 0 {
		t.Errorf("%d goals stopped at 1 hop despite horizon 2", st.GoalHops.Count(1))
	}
	// CWN must actually spread work: several PEs busy.
	busyPEs := 0
	for i := 0; i < st.P; i++ {
		if st.BusyPerPE[i] > 0 {
			busyPEs++
		}
	}
	if busyPEs < st.P/2 {
		t.Errorf("only %d/%d PEs did work under CWN", busyPEs, st.P)
	}
	if st.Speedup() <= 1.5 {
		t.Errorf("CWN speedup = %.2f, want > 1.5 on 16 PEs", st.Speedup())
	}
}

func TestGradientOnGrid(t *testing.T) {
	tree := workload.NewFib(10)
	strat := core.NewGradient(1, 2, 20)
	st := run(t, topology.NewGrid(4, 4), tree, strat, nil)
	checkConservation(t, st, tree)

	// GM keeps much work local: a large share of goals never move.
	zero := float64(st.GoalHops.Count(0)) / float64(st.GoalHops.Total())
	if zero < 0.2 {
		t.Errorf("GM zero-hop share = %.2f, want >= 0.2", zero)
	}
	if st.Speedup() <= 1.0 {
		t.Errorf("GM speedup = %.2f, want > 1", st.Speedup())
	}
}

func TestCWNBeatsGMOnGridFib(t *testing.T) {
	// The paper's headline result, at small scale: CWN yields at least
	// as much speedup as GM on a grid.
	tree := workload.NewFib(12)
	topo := topology.NewGrid(5, 5)
	cwn := run(t, topo, tree, core.PaperCWNGrid(), nil)
	gm := run(t, topo, tree, core.PaperGMGrid(), nil)
	if cwn.Speedup() < gm.Speedup() {
		t.Errorf("CWN speedup %.2f < GM %.2f — paper's central claim violated at fib(12)/5x5",
			cwn.Speedup(), gm.Speedup())
	}
	// And CWN pays more communication per goal (paper: ~3x distance).
	if cwn.AvgGoalHops() <= gm.AvgGoalHops() {
		t.Errorf("CWN avg hops %.2f <= GM %.2f — expected CWN to travel farther",
			cwn.AvgGoalHops(), gm.AvgGoalHops())
	}
}

func TestAllStrategiesCompleteEverywhere(t *testing.T) {
	topos := []*topology.Topology{
		topology.NewGrid(3, 3),
		topology.NewTorus(3, 3),
		topology.NewDLM(5, 5, 5),
		topology.NewHypercube(3),
		topology.NewRing(6),
		topology.NewStar(5),
		topology.NewSingle(),
		topology.NewBusGlobal(4),
	}
	strats := []machine.Strategy{
		core.NewCWN(3, 1),
		core.NewGradient(1, 2, 20),
		core.NewACWN(3, 1, 3, 40),
		core.NewLocal(),
		core.NewRandomWalk(2),
		core.NewRoundRobin(),
		core.NewWorkSteal(20, 1),
	}
	tree := workload.NewFib(8)
	for _, topo := range topos {
		for _, strat := range strats {
			st := run(t, topo, tree, strat, nil)
			checkConservation(t, st, tree)
		}
	}
}

func TestDeterminismSameSeed(t *testing.T) {
	tree := workload.NewFib(9)
	topo := topology.NewGrid(4, 4)
	mk := func(seed int64) *machine.Stats {
		cfg := machine.DefaultConfig()
		cfg.Seed = seed
		cfg.SampleInterval = 50
		return machine.New(topo, tree, core.NewCWN(4, 1), cfg).Run()
	}
	a, b := mk(7), mk(7)
	if a.Makespan != b.Makespan || a.TotalBusy != b.TotalBusy || a.TotalMessages() != b.TotalMessages() {
		t.Fatalf("same seed diverged: makespan %d vs %d, busy %d vs %d, msgs %d vs %d",
			a.Makespan, b.Makespan, a.TotalBusy, b.TotalBusy, a.TotalMessages(), b.TotalMessages())
	}
	for i := range a.BusyPerPE {
		if a.BusyPerPE[i] != b.BusyPerPE[i] {
			t.Fatalf("same seed diverged at PE %d", i)
		}
	}
	if a.Timeline.Len() != b.Timeline.Len() {
		t.Fatal("timelines differ in length")
	}
}

func TestSeedsAcrossRunsConserve(t *testing.T) {
	tree := workload.NewFib(9)
	topo := topology.NewGrid(3, 3)
	for seed := int64(0); seed < 15; seed++ {
		cfg := machine.DefaultConfig()
		cfg.Seed = seed
		st := machine.New(topo, tree, core.NewCWN(4, 1), cfg).Run()
		if !st.Completed {
			t.Fatalf("seed %d did not complete", seed)
		}
		checkConservation(t, st, tree)
		if st.GoalHops.Max() > 4 {
			t.Fatalf("seed %d: hops %d > radius", seed, st.GoalHops.Max())
		}
	}
}

func TestTimelineSampling(t *testing.T) {
	tree := workload.NewFib(11)
	st := run(t, topology.NewGrid(4, 4), tree, core.NewCWN(4, 1), func(c *machine.Config) {
		c.SampleInterval = 50
	})
	if st.Timeline.Len() < 2 {
		t.Fatalf("timeline has %d points, want >= 2", st.Timeline.Len())
	}
	for _, p := range st.Timeline.Points {
		if p.V < 0 || p.V > 100.0001 {
			t.Fatalf("timeline sample %f%% out of [0,100]", p.V)
		}
	}
	// The mean of windowed samples should roughly match the overall
	// utilization (within sampling noise of the tail window).
	if st.Timeline.Mean() < st.UtilizationPercent()-25 || st.Timeline.Mean() > st.UtilizationPercent()+25 {
		t.Errorf("timeline mean %.1f%% far from overall %.1f%%", st.Timeline.Mean(), st.UtilizationPercent())
	}
}

func TestResponsesRouteShortestPath(t *testing.T) {
	tree := workload.NewFib(9)
	topo := topology.NewGrid(4, 4)
	st := run(t, topo, tree, core.NewCWN(6, 1), nil)
	// A response travels at most the diameter per delivery.
	if st.RespHops.Max() > topo.Diameter() {
		t.Errorf("response travelled %d hops > diameter %d", st.RespHops.Max(), topo.Diameter())
	}
	if st.RespHops.Total() != int64(tree.Count()-1) {
		t.Errorf("responses delivered = %d, want %d", st.RespHops.Total(), tree.Count()-1)
	}
}

func TestLocalStrategyIsSequential(t *testing.T) {
	tree := workload.NewFib(9)
	st := run(t, topology.NewGrid(4, 4), tree, core.NewLocal(), nil)
	checkConservation(t, st, tree)
	if st.Speedup() != 1.0 {
		t.Errorf("Local speedup = %f, want exactly 1 (everything on root PE)", st.Speedup())
	}
	if st.BusyPerPE[1] != 0 {
		t.Error("Local strategy leaked work off the root PE")
	}
}

func TestChainHasNoParallelism(t *testing.T) {
	tree := workload.NewChain(50)
	st := run(t, topology.NewGrid(3, 3), tree, core.NewCWN(4, 1), nil)
	checkConservation(t, st, tree)
	if st.Speedup() > 1.0 {
		t.Errorf("chain speedup = %f > 1: impossible for a sequential dependency chain", st.Speedup())
	}
}

func TestNoLoadBroadcastsStillCompletes(t *testing.T) {
	// With periodic broadcasts off, CWN hears neighbor loads only as
	// the loads piggybacked on goal and response messages — it must
	// still complete correctly, and no load word goes out.
	tree := workload.NewFib(9)
	st := run(t, topology.NewGrid(4, 4), tree, core.NewCWN(4, 2), func(c *machine.Config) {
		c.LoadInterval = 0
	})
	checkConservation(t, st, tree)
	if st.MsgCounts[machine.MsgLoad] != 0 {
		t.Errorf("load messages sent with LoadInterval=0: %d", st.MsgCounts[machine.MsgLoad])
	}
}

func TestCommitmentAwareLoadMetric(t *testing.T) {
	tree := workload.NewFib(10)
	st := run(t, topology.NewGrid(4, 4), tree, core.NewCWN(4, 1), func(c *machine.Config) {
		c.LoadMetric = machine.LoadQueuePlusPending
	})
	checkConservation(t, st, tree)
}

func TestHighCommRatioStillCorrect(t *testing.T) {
	// The paper's caveat: when communication is expensive CWN loses its
	// edge. Whatever the performance, the run must stay correct.
	tree := workload.NewFib(9)
	st := run(t, topology.NewGrid(3, 3), tree, core.PaperCWNGrid(), func(c *machine.Config) {
		c.GoalHopTime = 20 // 2x the grain time per hop
		c.RespHopTime = 20
	})
	checkConservation(t, st, tree)
}

func TestDLMBroadcastDuplicatesHarmless(t *testing.T) {
	// On a DLM some neighbor pairs share two buses, so broadcasts arrive
	// twice; GM proximity updates must stay consistent.
	tree := workload.NewFib(10)
	st := run(t, topology.NewDLM(5, 5, 5), tree, core.PaperGMDLM(), nil)
	checkConservation(t, st, tree)
}

func TestGradientRequireTargetVariant(t *testing.T) {
	tree := workload.NewFib(10)
	s := core.NewGradient(1, 2, 20)
	s.RequireTarget = true
	st := run(t, topology.NewGrid(4, 4), tree, s, nil)
	checkConservation(t, st, tree)
}

func TestStatsStringNonEmpty(t *testing.T) {
	tree := workload.NewFib(8)
	st := run(t, topology.NewGrid(3, 3), tree, core.NewCWN(3, 1), nil)
	if st.String() == "" {
		t.Fatal("empty Stats.String")
	}
}

func TestRootPEPlacement(t *testing.T) {
	tree := workload.NewFib(8)
	st := run(t, topology.NewGrid(3, 3), tree, core.NewLocal(), func(c *machine.Config) {
		c.RootPE = 4
	})
	if st.BusyPerPE[4] == 0 {
		t.Fatal("work did not start at configured RootPE")
	}
	if st.BusyPerPE[0] != 0 {
		t.Fatal("work leaked to PE 0 under Local with RootPE=4")
	}
}

func BenchmarkCWNGrid10x10Fib13(b *testing.B) {
	tree := workload.NewFib(13)
	topo := topology.NewGrid(10, 10)
	for i := 0; i < b.N; i++ {
		cfg := machine.DefaultConfig()
		st := machine.New(topo, tree, core.PaperCWNGrid(), cfg).Run()
		if !st.Completed {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkGMGrid10x10Fib13(b *testing.B) {
	tree := workload.NewFib(13)
	topo := topology.NewGrid(10, 10)
	for i := 0; i < b.N; i++ {
		cfg := machine.DefaultConfig()
		st := machine.New(topo, tree, core.PaperGMGrid(), cfg).Run()
		if !st.Completed {
			b.Fatal("incomplete")
		}
	}
}
