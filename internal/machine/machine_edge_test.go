package machine_test

import (
	"fmt"
	"strings"
	"testing"

	"cwnsim/internal/core"
	"cwnsim/internal/machine"
	"cwnsim/internal/scenario"
	"cwnsim/internal/topology"
	"cwnsim/internal/trace"
	"cwnsim/internal/workload"
)

// TestResponseHopsEqualTopologicalDistance uses the trace to verify
// each response travels exactly Dist(executor, parent) hops.
func TestResponseHopsEqualTopologicalDistance(t *testing.T) {
	tree := workload.NewFib(9)
	topo := topology.NewGrid(4, 4)
	var col trace.Collector
	cfg := machine.DefaultConfig()
	cfg.Trace = &col
	st := machine.New(topo, tree, core.NewCWN(5, 1), cfg).Run()
	if !st.Completed {
		t.Fatal("incomplete")
	}
	// Reconstruct: RespSent at the executing PE, with Other = parent PE.
	var totalDist int64
	for _, ev := range col.ByKind(trace.RespSent) {
		totalDist += int64(topo.Dist(ev.PE, ev.Other))
	}
	var histSum int64
	for h := 0; h <= st.RespHops.Max(); h++ {
		histSum += int64(h) * st.RespHops.Count(h)
	}
	if totalDist != histSum {
		t.Fatalf("response hops %d != sum of shortest distances %d", histSum, totalDist)
	}
}

// TestGMControlTrafficCounted verifies proximity broadcasts appear in
// the control message counters and cost channel time.
func TestGMControlTrafficCounted(t *testing.T) {
	tree := workload.NewFib(11)
	cfg := machine.DefaultConfig()
	st := machine.New(topology.NewGrid(4, 4), tree, core.NewGradient(1, 2, 20), cfg).Run()
	if !st.Completed {
		t.Fatal("incomplete")
	}
	if st.MsgCounts[machine.MsgControl] == 0 {
		t.Error("GM sent no proximity broadcasts")
	}
}

// TestBusSaturationStillCorrect pushes a large workload over a single
// shared bus: extreme contention, but conservation and the result must
// hold, and the bus must not exceed 100% utilization.
func TestBusSaturationStillCorrect(t *testing.T) {
	tree := workload.NewFib(12)
	cfg := machine.DefaultConfig()
	st := machine.New(topology.NewBusGlobal(8), tree, core.NewCWN(2, 1), cfg).Run()
	if !st.Completed {
		t.Fatal("incomplete")
	}
	if st.Result != tree.Eval() {
		t.Fatalf("result %d, want %d", st.Result, tree.Eval())
	}
	if st.GoalsExecuted != int64(tree.Count()) {
		t.Fatalf("executed %d, want %d", st.GoalsExecuted, tree.Count())
	}
	if u := st.MaxChannelUtilization(); u > 1.0000001 {
		t.Fatalf("bus utilization %f > 1", u)
	}
	if u := st.MaxChannelUtilization(); u < 0.3 {
		t.Errorf("expected a heavily loaded bus, got %.2f", u)
	}
}

// TestLoadInfoStaleness verifies a neighbor's load is heard through
// periodic broadcasts. It runs CWN, which reads the views: a load-blind
// strategy such as Local keeps none.
func TestLoadInfoStaleness(t *testing.T) {
	tree := workload.NewFib(10)
	topo := topology.NewGrid(2, 2)
	cfg := machine.DefaultConfig()
	cfg.LoadInterval = 20
	m := machine.New(topo, tree, core.NewCWN(4, 1), cfg)
	pe := m.PE(1)
	m.Engine().Schedule(100, func() {
		if _, heard := pe.KnownLoad(0); !heard {
			t.Error("no load broadcast heard by t=100 with interval 20")
		}
	})
	m.Run()
}

// TestLoadBlindReadPanics pins the LoadBlind declaration: a machine
// running a load-blind strategy keeps no neighbor view, so each of the
// three view reads panics, naming itself and the strategy.
func TestLoadBlindReadPanics(t *testing.T) {
	gm := core.NewGradient(1, 2, 20)
	m := machine.New(topology.NewGrid(2, 2), workload.NewFib(5), gm, machine.DefaultConfig())
	pe := m.PE(0)
	for _, r := range []struct {
		method string
		read   func()
	}{
		{"KnownLoad", func() { pe.KnownLoad(1) }},
		{"LeastLoadedNeighbor", func() { pe.LeastLoadedNeighbor() }},
		{"MinNeighborLoad", func() { pe.MinNeighborLoad() }},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "PE."+r.method) || !strings.Contains(msg, gm.Name()) {
					t.Errorf("%s on a GM machine: panic %q, want one naming the method and %s", r.method, msg, gm.Name())
				}
			}()
			r.read()
		}()
	}
}

// TestPEAccessors covers the remaining PE accessors.
func TestPEAccessors(t *testing.T) {
	tree := workload.NewFib(5)
	m := machine.New(topology.NewGrid(2, 2), tree, core.NewLocal(), machine.DefaultConfig())
	pe := m.PE(0)
	if pe.ID() != 0 {
		t.Error("ID")
	}
	if pe.Machine() != m {
		t.Error("Machine")
	}
	if pe.Now() != 0 {
		t.Error("Now")
	}
	if got := len(pe.Neighbors()); got != 2 {
		t.Errorf("corner of 2x2 grid has %d neighbors, want 2", got)
	}
	if pe.Node() == nil {
		t.Error("Node nil")
	}
	if m.Tree() != tree {
		t.Error("Tree")
	}
	if m.Config().GrainTime != 10 {
		t.Error("Config")
	}
	if m.Completed() {
		t.Error("Completed before run")
	}
}

// TestMsgCountsByKind checks accounting sanity under CWN: every goal
// hop and response hop is one message; load words flow periodically.
func TestMsgCountsByKind(t *testing.T) {
	tree := workload.NewFib(10)
	var col trace.Collector
	cfg := machine.DefaultConfig()
	cfg.Trace = &col
	st := machine.New(topology.NewGrid(4, 4), tree, core.NewCWN(4, 1), cfg).Run()
	if !st.Completed {
		t.Fatal("incomplete")
	}
	if int64(col.Count(trace.GoalSent)) != st.MsgCounts[machine.MsgGoal] {
		t.Errorf("goal sends traced %d != counted %d", col.Count(trace.GoalSent), st.MsgCounts[machine.MsgGoal])
	}
	var hopSum int64
	for h := 0; h <= st.GoalHops.Max(); h++ {
		hopSum += int64(h) * st.GoalHops.Count(h)
	}
	if hopSum != st.MsgCounts[machine.MsgGoal] {
		t.Errorf("goal hop-sum %d != goal messages %d", hopSum, st.MsgCounts[machine.MsgGoal])
	}
	if st.MsgCounts[machine.MsgLoad] == 0 {
		t.Error("no periodic load messages despite LoadInterval=20")
	}
}

// TestGoalsPerPEConservation: the per-PE execution counts partition the
// goal total.
func TestGoalsPerPEConservation(t *testing.T) {
	tree := workload.NewFib(11)
	st := machine.New(topology.NewGrid(4, 4), tree, core.NewCWN(4, 1), machine.DefaultConfig()).Run()
	if !st.Completed {
		t.Fatal("incomplete")
	}
	var sum int64
	for _, n := range st.GoalsPerPE {
		sum += n
	}
	if sum != st.GoalsExecuted || sum != int64(tree.Count()) {
		t.Fatalf("per-PE sum %d, GoalsExecuted %d, tree %d", sum, st.GoalsExecuted, tree.Count())
	}
}

// TestQueueDelayShowsHoarding measures the paper's hoarding effect as
// queueing delay: GM's accepted goals wait in queues far longer than
// CWN's on a grid (work piles up where it was created).
func TestQueueDelayShowsHoarding(t *testing.T) {
	tree := workload.NewFib(13)
	topo := topology.NewGrid(5, 5)
	cwn := machine.New(topo, tree, core.PaperCWNGrid(), machine.DefaultConfig()).Run()
	gm := machine.New(topo, tree, core.PaperGMGrid(), machine.DefaultConfig()).Run()
	if !cwn.Completed || !gm.Completed {
		t.Fatal("incomplete")
	}
	if gm.QueueDelay.Mean() <= cwn.QueueDelay.Mean() {
		t.Errorf("GM mean queue delay %.1f <= CWN %.1f — hoarding signature missing",
			gm.QueueDelay.Mean(), cwn.QueueDelay.Mean())
	}
	if cwn.QueueDelay.N() != int64(tree.Count()) {
		t.Errorf("delay samples %d, want %d", cwn.QueueDelay.N(), tree.Count())
	}
	if cwn.QueueDelay.Min() < 0 {
		t.Error("negative queue delay")
	}
}

// TestRouteGoalAPI exercises multi-hop goal routing directly.
func TestRouteGoalAPI(t *testing.T) {
	tree := workload.NewFib(9)
	st := machine.New(topology.NewRing(6), tree, core.NewIdeal(), machine.DefaultConfig()).Run()
	if !st.Completed {
		t.Fatal("incomplete")
	}
	if st.Result != tree.Eval() {
		t.Fatalf("result %d, want %d", st.Result, tree.Eval())
	}
}

// TestExtremeFactorsSaturate: a Poisson mean or a scenario factor that
// scales a duration past int64's range behaves like a merely large one
// — its event lies past the horizon. A conversion that wrapped into the
// one-unit floor would let each extreme run below finish early (or
// flood the machine with arrivals) where the large one stalls. A short
// horizon keeps the stalled runs cheap; every large duration below
// still ends past it.
func TestExtremeFactorsSaturate(t *testing.T) {
	fib := workload.NewFib(9)
	run := func(src machine.JobSource, script string) *machine.Stats {
		cfg := machine.DefaultConfig()
		cfg.MaxTime = 100_000
		cfg.Scenario = scenario.MustParse(script)
		return machine.NewStream(topology.NewGrid(4, 4), src, core.NewCWN(9, 2), cfg).Run()
	}
	for _, tc := range []struct {
		name           string
		extreme, large float64
		probe          func(x float64) *machine.Stats
	}{
		{"poisson mean", 1e19, 1e18, func(x float64) *machine.Stats { return run(machine.NewPoisson(fib, x, 5), "") }},
		{"load shock", 1e-300, 1e-6, func(x float64) *machine.Stats {
			return run(machine.NewPoisson(fib, 200, 40), fmt.Sprintf("shock:x=%g@t=100", x))
		}},
		{"link degrade", 1e300, 1e6, func(x float64) *machine.Stats {
			return run(machine.NewSingleJob(fib), fmt.Sprintf("degradelink:a=0:b=1:x=%g@t=0", x))
		}},
		{"PE slowdown", 1e-300, 1e-6, func(x float64) *machine.Stats {
			return run(machine.NewSingleJob(fib), fmt.Sprintf("slow:pes=0:x=%g@t=0", x))
		}},
	} {
		ext, big := tc.probe(tc.extreme), tc.probe(tc.large)
		if ext.Completed != big.Completed || ext.JobsInjected != big.JobsInjected || ext.JobsDone != big.JobsDone || ext.Makespan != big.Makespan {
			t.Errorf("%s: x=%g ran completed=%v jobs %d/%d makespan %d; x=%g ran completed=%v jobs %d/%d makespan %d",
				tc.name, tc.extreme, ext.Completed, ext.JobsDone, ext.JobsInjected, ext.Makespan,
				tc.large, big.Completed, big.JobsDone, big.JobsInjected, big.Makespan)
		}
	}
}

// TestShardFinishAtLastLeave pins one finish rule for every shard
// count: a completed run ends at the latest instant a job left, whether
// it delivered its root response or was abandoned. Under RetryLimit 1
// the second crash abandons the job it strikes, at the crash instant; a
// one-shard run stops there, and a K-shard run decides at the barrier
// that applies the crash.
func TestShardFinishAtLastLeave(t *testing.T) {
	fib := workload.NewFib(12)
	crashes := func(at int) string {
		return fmt.Sprintf("crash:pes=50%%@t=%d,recover@t=%d,crash:pes=0+1+2+3+4+5+6+7@t=%d,recover@t=%d", at, at+10, at+30, at+40)
	}
	run := func(shards int, src machine.JobSource, script string) *machine.Stats {
		cfg := machine.DefaultConfig()
		cfg.Shards = shards
		cfg.RetryLimit = 1
		cfg.Scenario = scenario.MustParse(script)
		return machine.NewStream(topology.NewGrid(4, 4), src, core.NewCWN(5, 2), cfg).Run()
	}
	for _, k := range []int{1, 2, 4} {
		// The only job is abandoned at t=60.
		st := run(k, machine.NewSingleJob(fib), crashes(30))
		if !st.Completed || st.JobsDone != 0 || st.JobsAbandoned != 1 || st.Makespan != 60 {
			t.Errorf("K=%d closed run: completed=%v done %d abandoned %d makespan %d, want true, 0, 1, 60",
				k, st.Completed, st.JobsDone, st.JobsAbandoned, st.Makespan)
		}
		if u := st.Utilization(); u < 0 || u > 1 {
			t.Errorf("K=%d closed run: utilization %g outside [0, 1]", k, u)
		}
		// The first job completes; the second is abandoned at t=1060,
		// after that completion.
		st = run(k, machine.NewFixedInterval(fib, 1000, 2), crashes(1030))
		if st.Makespan != 1060 || st.Result != fib.Eval() {
			t.Errorf("K=%d stream: makespan %d result %d, want 1060 and %d", k, st.Makespan, st.Result, fib.Eval())
		}
	}
}
