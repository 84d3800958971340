package machine

import (
	"math"
	"testing"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// pushRight is a test strategy that exports every goal created on PE 0
// to its highest-numbered neighbor and keeps everything else local —
// deterministic cross-link traffic for outage tests. It reads no view,
// so it declares itself LoadBlind and its runs tally their load words.
type pushRight struct{}

func (pushRight) Name() string                { return "push-right" }
func (pushRight) LoadBlind() string           { return "PE 0 pushes to its last neighbor" }
func (pushRight) NewNode(pe *PE) NodeStrategy { return pushRightNode{pe} }

type pushRightNode struct{ pe *PE }

func (n pushRightNode) HandleEvent(ev Event) {
	switch ev.Kind {
	case GoalCreated:
		nbrs := n.pe.Neighbors()
		if n.pe.ID() == 0 && len(nbrs) > 0 {
			n.pe.SendGoal(nbrs[len(nbrs)-1], ev.Goal)
			return
		}
		n.pe.Accept(ev.Goal)
	case GoalArrived:
		n.pe.Accept(ev.Goal)
	}
}

// fingerprint captures everything a bit-for-bit comparison of two runs
// needs: the event sequence (makespan+events), the computed result, and
// the accounting that any divergence would disturb. The steady sojourn
// mean is held as its bits, so two runs that complete no job, whose
// mean is NaN, compare equal.
type fingerprint struct {
	makespan  sim.Time
	events    uint64
	result    int64
	totalBusy sim.Time
	msgs      [numMsgKinds]int64
	sojMean   uint64
	jobsDone  int64
}

func fp(st *Stats) fingerprint {
	return fingerprint{
		makespan:  st.Makespan,
		events:    st.Events,
		result:    st.Result,
		totalBusy: st.TotalBusy,
		msgs:      st.MsgCounts,
		sojMean:   math.Float64bits(st.SteadySojourn.Mean()),
		jobsDone:  st.JobsDone,
	}
}

// TestEmptyScenarioBitForBit pins the tentpole's no-cost guarantee: a
// nil scenario and an explicitly empty script must reproduce the
// unscripted run bit for bit — same event sequence, same results, same
// message counts — across closed and open system modes.
func TestEmptyScenarioBitForBit(t *testing.T) {
	run := func(sc *scenario.Script, stream bool) fingerprint {
		cfg := DefaultConfig()
		cfg.Scenario = sc
		topo := topology.NewGrid(3, 3)
		tree := workload.NewFib(8)
		if stream {
			return fp(NewStream(topo, NewPoisson(tree, 60, 40), pushRight{}, cfg).Run())
		}
		return fp(New(topo, tree, pushRight{}, cfg).Run())
	}
	for _, stream := range []bool{false, true} {
		base := run(nil, stream)
		if empty := run(&scenario.Script{}, stream); empty != base {
			t.Errorf("stream=%v: empty script diverged: %+v vs %+v", stream, empty, base)
		}
	}
}

// TestSlowPERescalesInFlightService pins the speed-change semantics on
// an exactly computable case: one PE serving a chain of unit-work goals
// (grain 10, combine 5) halves its speed mid-run, and every remaining
// unit of work takes exactly twice as long — including the remainder of
// the goal in service when the event fires.
func TestSlowPERescalesInFlightService(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadInterval = 0
	base := New(topology.NewSingle(), workload.NewChain(10), keepLocal{}, cfg).Run()
	if !base.Completed {
		t.Fatal("baseline did not complete")
	}

	// Halve the speed at t=25: 25 units of work are done, the rest — in
	// flight and queued — takes 2x. Expected makespan: 25 + 2*(base-25).
	cfg2 := cfg
	cfg2.Scenario = scenario.MustParse("slow:pes=0:x=0.5@t=25")
	slowed := New(topology.NewSingle(), workload.NewChain(10), keepLocal{}, cfg2).Run()
	if !slowed.Completed {
		t.Fatal("slowed run did not complete")
	}
	want := 25 + 2*(base.Makespan-25)
	if slowed.Makespan != want {
		t.Fatalf("slowed makespan = %d, want %d (base %d)", slowed.Makespan, want, base.Makespan)
	}
	if slowed.Result != base.Result {
		t.Fatalf("slowdown changed the result: %d vs %d", slowed.Result, base.Result)
	}
	// Busy-time accounting must follow the stretched service.
	if slowed.TotalBusy != slowed.Makespan {
		t.Fatalf("slowed TotalBusy = %d, want %d (PE continuously busy)", slowed.TotalBusy, slowed.Makespan)
	}

	// Restoring the speed at t=55 (30 slowed units = 15 units of work
	// done by then) returns the remaining work to nominal pace.
	cfg3 := cfg
	cfg3.Scenario = scenario.MustParse("slow:pes=0:x=0.5@t=25,restore@t=55")
	restored := New(topology.NewSingle(), workload.NewChain(10), keepLocal{}, cfg3).Run()
	want = base.Makespan + 15 // the slowed interval [25,55) performed 15 units instead of 30
	if restored.Makespan != want {
		t.Fatalf("restored makespan = %d, want %d", restored.Makespan, want)
	}
}

// TestFailEvacuatesQueueAndRecovers drives a blackout through the
// drain/requeue semantics end to end: a keep-local machine has all its
// work piled on PE 0; failing PE 0 evacuates the queued goals to the
// live neighbor and aborts the in-service goal, responses freeze on the
// failed PE, and recovery drains everything to the correct result.
func TestFailEvacuatesQueueAndRecovers(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scenario = scenario.MustParse("fail:pes=0@t=35,recover@t=400")
	tree := workload.NewFib(6)
	st := New(topology.NewGrid(1, 2), tree, keepLocal{}, cfg).Run()
	if !st.Completed {
		t.Fatalf("blackout run did not complete: %d/%d jobs", st.JobsDone, st.JobsInjected)
	}
	if st.Result != workload.FibValue(6) {
		t.Fatalf("Result = %d, want fib(6) = %d", st.Result, workload.FibValue(6))
	}
	if st.GoalsRequeued == 0 {
		t.Fatal("no goals evacuated from the failed PE")
	}
	if st.ServiceAborts != 1 {
		t.Fatalf("ServiceAborts = %d, want 1 (the goal in service at t=35)", st.ServiceAborts)
	}
	if st.DownPETime != 400-35 {
		t.Fatalf("DownPETime = %d, want %d", st.DownPETime, 400-35)
	}
	// The evacuated goals executed on PE 1 while PE 0 was down.
	if st.GoalsPerPE[1] == 0 {
		t.Fatal("refuge PE executed nothing")
	}
	// Capacity-aware utilization exceeds the naive figure, which charges
	// the blackout as idle time.
	if st.EffectiveUtilization() <= st.Utilization() {
		t.Fatalf("EffectiveUtilization %f <= Utilization %f despite downtime",
			st.EffectiveUtilization(), st.Utilization())
	}
}

// TestFailedPEAdvertisesSentinelLoad checks the steering mechanism:
// a failed PE reports FailedLoad and broadcasts it immediately, so
// load-comparing neighbors avoid it without waiting for a tick.
func TestFailedPEAdvertisesSentinelLoad(t *testing.T) {
	// Scenario ops apply at the coordinator's window barriers, so each
	// probe is a run cut off at its horizon.
	runUntil := func(horizon sim.Time) *Machine {
		cfg := DefaultConfig()
		cfg.MaxTime = horizon
		cfg.Scenario = scenario.MustParse("fail:pes=1@t=5,recover@t=100")
		m := New(topology.NewGrid(1, 2), workload.NewChain(30), keepLocal{}, cfg)
		m.Run()
		return m
	}
	m := runUntil(20) // past the failure and its broadcast delivery
	if got := m.pes[1].Load(); got != FailedLoad {
		t.Fatalf("failed PE advertises load %d, want %d", got, FailedLoad)
	}
	if !m.pes[1].Failed() {
		t.Fatal("PE 1 not marked failed")
	}
	if load, heard := m.pes[0].KnownLoad(1); load != FailedLoad || !heard {
		t.Fatalf("neighbor heard load %d (heard %v), want the fail broadcast", load, heard)
	}
	m = runUntil(200)
	if m.pes[1].Failed() {
		t.Fatal("PE 1 did not recover")
	}
	if load, _ := m.pes[0].KnownLoad(1); load == FailedLoad {
		t.Fatal("recovery broadcast did not clear the sentinel")
	}
}

// TestArrivingGoalsRedirectOffFailedPE pins the delivery-time redirect:
// goals sent toward a blacked-out PE are evacuated by its co-processor
// to the nearest live PE and counted as requeued.
func TestArrivingGoalsRedirectOffFailedPE(t *testing.T) {
	// pushRight exports every goal created on PE 0 to PE 1; with PE 1
	// down the whole time work must still complete — on PEs 0 and 2 —
	// and every export to PE 1 counts as a redirect.
	cfg := DefaultConfig()
	cfg.Scenario = scenario.MustParse("fail:pes=1@t=0")
	st := New(topology.NewGrid(1, 3), workload.NewFib(7), pushRight{}, cfg).Run()
	if !st.Completed {
		t.Fatal("run did not complete with PE 1 down")
	}
	if st.Result != workload.FibValue(7) {
		t.Fatalf("Result = %d, want fib(7)", st.Result)
	}
	if st.GoalsRequeued == 0 {
		t.Fatal("no redirects counted")
	}
	if st.GoalsPerPE[1] != 0 {
		t.Fatalf("failed PE executed %d goals", st.GoalsPerPE[1])
	}
}

// TestInjectRedirectsOffFailedRoot covers the ingress path: jobs
// arriving while the root PE is down are accepted at the nearest live
// PE and counted.
func TestInjectRedirectsOffFailedRoot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scenario = scenario.MustParse("fail:pes=0@t=10,recover@t=2000")
	tree := workload.NewFib(4)
	st := NewStream(topology.NewGrid(1, 2), NewFixedInterval(tree, 100, 10), keepLocal{}, cfg).Run()
	if !st.Completed {
		t.Fatalf("stream did not drain: %d/%d", st.JobsDone, st.JobsInjected)
	}
	if st.RootRedirects == 0 {
		t.Fatal("no injections redirected off the failed root")
	}
	if st.JobsDone != 10 {
		t.Fatalf("JobsDone = %d, want 10", st.JobsDone)
	}
}

// TestFailingEveryPEPanics pins the last-live-PE guard at
// construction: a single all-PE fail event and fail events that
// together leave no PE live are both refused before the run starts
// (TestValidateLiveness covers the walk's rules).
func TestFailingEveryPEPanics(t *testing.T) {
	for _, script := range []string{"fail:pes=100%@t=10", "fail:pes=0@t=10,fail:pes=1@t=20"} {
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

// TestLinkOutageHoldsAndFlushes pins outage semantics: messages bound
// for a downed link hold at the sender and flush in order on restore,
// so the run completes with the same result, later.
func TestLinkOutageHoldsAndFlushes(t *testing.T) {
	run := func(script string) *Stats {
		cfg := DefaultConfig()
		cfg.LoadInterval = 0
		if script != "" {
			cfg.Scenario = scenario.MustParse(script)
		}
		return New(topology.NewGrid(1, 2), workload.NewFib(7), pushRight{}, cfg).Run()
	}
	base := run("")
	out := run("droplink:a=0:b=1@t=5,restorelink:a=0:b=1@t=5000")
	if !out.Completed {
		t.Fatal("outage run did not complete after restore")
	}
	if out.Result != base.Result {
		t.Fatalf("outage changed the result: %d vs %d", out.Result, base.Result)
	}
	if out.Makespan <= 5000 {
		t.Fatalf("outage makespan = %d, want > restore time (work was blocked)", out.Makespan)
	}
	if out.MsgCounts[MsgGoal] != base.MsgCounts[MsgGoal] {
		t.Fatalf("outage lost messages: %d goal msgs vs %d", out.MsgCounts[MsgGoal], base.MsgCounts[MsgGoal])
	}
}

// TestDegradeAfterOutageBringsLinkUp pins the absolute-state rule: a
// degradelink with a positive factor on a downed link ends the outage
// (flushing held messages) instead of leaving it silently down — no
// restorelink ever fires in this script, so completion itself proves
// the flush ran.
func TestDegradeAfterOutageBringsLinkUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadInterval = 0
	cfg.Scenario = scenario.MustParse("droplink:a=0:b=1@t=5,degradelink:a=0:b=1:x=2@t=500")
	st := New(topology.NewGrid(1, 2), workload.NewFib(7), pushRight{}, cfg).Run()
	if !st.Completed {
		t.Fatal("run did not complete: a positive degrade factor left the link down")
	}
	if st.Result != workload.FibValue(7) {
		t.Fatalf("Result = %d, want fib(7)", st.Result)
	}
	if st.Makespan <= 500 {
		t.Fatalf("makespan = %d, want > 500 (work was blocked during the outage)", st.Makespan)
	}
}

// TestDegradedLinkStretchesOccupancy pins degradation: a 4x-degraded
// link charges 4x the occupancy per message and slows the run without
// changing what is computed.
func TestDegradedLinkStretchesOccupancy(t *testing.T) {
	run := func(script string) *Stats {
		cfg := DefaultConfig()
		cfg.LoadInterval = 0
		if script != "" {
			cfg.Scenario = scenario.MustParse(script)
		}
		return New(topology.NewGrid(1, 2), workload.NewFib(7), pushRight{}, cfg).Run()
	}
	base := run("")
	deg := run("degradelink:a=0:b=1:x=4@t=0")
	if !deg.Completed || deg.Result != base.Result {
		t.Fatal("degraded run broken")
	}
	if deg.Makespan <= base.Makespan {
		t.Fatalf("degraded makespan %d <= base %d", deg.Makespan, base.Makespan)
	}
	if deg.ChannelBusy[0] != 4*base.ChannelBusy[0] {
		t.Fatalf("degraded channel busy = %d, want 4x%d", deg.ChannelBusy[0], base.ChannelBusy[0])
	}
}

// TestLoadShockAcceleratesArrivals pins the rate multiplier: a 4x
// shock compresses every subsequently drawn inter-arrival gap.
func TestLoadShockAcceleratesArrivals(t *testing.T) {
	run := func(script string) *Stats {
		cfg := DefaultConfig()
		if script != "" {
			cfg.Scenario = scenario.MustParse(script)
		}
		tree := workload.NewFib(4)
		return NewStream(topology.NewSingle(), NewFixedInterval(tree, 100, 10), keepLocal{}, cfg).Run()
	}
	base := run("")
	shocked := run("shock:x=4@t=0")
	// Gap 100 becomes 25 for every draw after the armed first arrival:
	// last injection at 9*25 instead of 9*100... except the first gap was
	// already armed at rate 1. Injections: 0, then 100?, no — the shock
	// fires at t=0 before the first *future* gap is drawn only for gaps
	// pulled after it; the pump drew (and armed) job 2's gap at t=0
	// during Run's initial pump, before events fire. So: job 1 at 0,
	// job 2 at 100, jobs 3..10 at 25 apart.
	wantLast := sim.Time(100 + 8*25)
	lastBase := base.JobRecords[len(base.JobRecords)-1].InjectedAt
	lastShock := shocked.JobRecords[len(shocked.JobRecords)-1].InjectedAt
	if lastBase != 900 {
		t.Fatalf("baseline last injection at %d, want 900", lastBase)
	}
	if lastShock != wantLast {
		t.Fatalf("shocked last injection at %d, want %d", lastShock, wantLast)
	}
	if !shocked.Completed || shocked.JobsDone != 10 {
		t.Fatal("shocked stream did not drain")
	}
}

// TestItemRingPushFront covers the ring primitive the failure path
// relies on, including growth from empty and wraparound. The ring's
// length is its owner's to keep (Machine.peQueue); n plays that part.
func TestItemRingPushFront(t *testing.T) {
	var r itemRing
	n := 0
	mk := func(id int64) item { return item{kind: itemGoal, goal: &Goal{ID: id}} }
	r.pushFront(n, mk(2)) // grows from empty
	n++
	r.push(n, mk(3))
	n++
	r.pushFront(n, mk(1))
	for want := int64(1); want <= 3; want++ {
		if got := r.popFront(); got.goal.ID != want {
			t.Fatalf("popFront = %d, want %d", got.goal.ID, want)
		}
	}
	// Wraparound: fill, drain some, push past the seam, then pushFront.
	r, n = itemRing{}, 0
	for i := int64(0); i < 20; i++ {
		r.push(n, mk(i))
		n++
	}
	for i := 0; i < 15; i++ {
		r.popFront()
		n--
	}
	r.pushFront(n, mk(99))
	if got := r.popFront(); got.goal.ID != 99 {
		t.Fatalf("wrapped pushFront popped %d", got.goal.ID)
	}
	if got := r.popFront(); got.goal.ID != 15 {
		t.Fatalf("order disturbed: %d", got.goal.ID)
	}
}

// TestScenarioDeterministicPerSeed runs the same blackout twice and
// demands identical fingerprints — the subsystem adds no hidden
// nondeterminism.
func TestScenarioDeterministicPerSeed(t *testing.T) {
	run := func() fingerprint {
		cfg := DefaultConfig()
		cfg.Scenario = scenario.Blackout(0.25, 500, 1500)
		tree := workload.NewFib(6)
		return fp(NewStream(topology.NewGrid(2, 2), NewPoisson(tree, 50, 50), pushRight{}, cfg).Run())
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("scenario run not deterministic: %+v vs %+v", a, b)
	}
}
