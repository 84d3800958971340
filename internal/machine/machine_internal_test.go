package machine

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// keepLocal is a minimal strategy: every goal runs where it was created.
type keepLocal struct{}

func (keepLocal) Name() string                { return "keep-local" }
func (keepLocal) NewNode(pe *PE) NodeStrategy { return keepLocalNode{pe} }

type keepLocalNode struct{ pe *PE }

func (n keepLocalNode) HandleEvent(ev Event) {
	switch ev.Kind {
	case GoalCreated, GoalArrived:
		n.pe.Accept(ev.Goal)
	}
}

func TestSinglePESequentialRun(t *testing.T) {
	tree := workload.NewFib(8)
	cfg := DefaultConfig()
	m := New(topology.NewSingle(), tree, keepLocal{}, cfg)
	st := m.Run()

	if !st.Completed {
		t.Fatal("run did not complete")
	}
	if st.Result != workload.FibValue(8) {
		t.Fatalf("Result = %d, want %d", st.Result, workload.FibValue(8))
	}
	goals := int64(tree.Count())
	if st.GoalsExecuted != goals {
		t.Fatalf("GoalsExecuted = %d, want %d", st.GoalsExecuted, goals)
	}
	if st.RespIntegrated != goals-1 {
		t.Fatalf("RespIntegrated = %d, want %d", st.RespIntegrated, goals-1)
	}
	// On one PE with zero communication the machine is a sequential
	// processor: makespan is exactly the total service time and
	// utilization is exactly 1.
	wantMakespan := sim.Time(tree.Count())*cfg.GrainTime + sim.Time(tree.Count()-1)*cfg.CombineTime
	if st.Makespan != wantMakespan {
		t.Fatalf("Makespan = %d, want %d", st.Makespan, wantMakespan)
	}
	if u := st.Utilization(); u != 1.0 {
		t.Fatalf("Utilization = %f, want exactly 1", u)
	}
	if sp := st.Speedup(); sp != 1.0 {
		t.Fatalf("Speedup = %f, want exactly 1", sp)
	}
	if st.GoalHops.Max() != 0 {
		t.Fatalf("goal hops max = %d, want 0 (nothing moved)", st.GoalHops.Max())
	}
	if st.TotalMessages() != 0 {
		t.Fatalf("TotalMessages = %d, want 0 on a single PE", st.TotalMessages())
	}
}

// TestChanHotIs32Bytes pins the hot channel record's size: two records
// share a 64-byte cache line, so a broadcast's channels cost as few
// lines as possible. A field every send does not read belongs in
// chanState.
func TestChanHotIs32Bytes(t *testing.T) {
	if n := unsafe.Sizeof(chanHot{}); n != 32 {
		t.Fatalf("chanHot is %d bytes, want 32: two to a cache line", n)
	}
}

// transmitFunc transmits a closure on local channel lc: it occupies the
// channel for dur units, as a message would, and runs deliver when the
// occupancy ends. It ignores link outages.
func (m *Machine) transmitFunc(lc int32, dur sim.Time, deliver func()) sim.Time {
	end := m.occupy(&m.hot[lc], lc, dur)
	m.eng.At(end, deliver)
	return end
}

func TestTransmitSerializesFIFO(t *testing.T) {
	topo := topology.NewGrid(1, 2)
	cfg := DefaultConfig()
	cfg.LoadInterval = 0 // quiesce periodic load broadcasts
	m := New(topo, workload.NewFib(2), keepLocal{}, cfg)
	h := &m.hot[0]
	var deliveries []sim.Time
	record := func() { deliveries = append(deliveries, m.eng.Now()) }
	// Three simultaneous 5-unit transmissions must serialize: 5, 10, 15.
	m.eng.Schedule(0, func() {
		m.transmitFunc(0, 5, record)
		m.transmitFunc(0, 5, record)
		m.transmitFunc(0, 5, record)
	})
	m.eng.RunUntil(100)
	want := []sim.Time{5, 10, 15}
	if len(deliveries) != 3 {
		t.Fatalf("deliveries = %v", deliveries)
	}
	for i := range want {
		if deliveries[i] != want[i] {
			t.Fatalf("deliveries = %v, want %v", deliveries, want)
		}
	}
	if h.busyTotal != 15 || h.messages != 3 {
		t.Fatalf("busyTotal=%d messages=%d, want 15/3", h.busyTotal, h.messages)
	}
}

func TestTransmitAfterIdleStartsImmediately(t *testing.T) {
	topo := topology.NewGrid(1, 2)
	cfg := DefaultConfig()
	cfg.LoadInterval = 0
	m := New(topo, workload.NewFib(2), keepLocal{}, cfg)
	var at sim.Time
	m.eng.Schedule(0, func() { m.transmitFunc(0, 5, func() {}) })
	m.eng.Schedule(50, func() { m.transmitFunc(0, 5, func() { at = m.eng.Now() }) })
	m.eng.RunUntil(100)
	if at != 55 {
		t.Fatalf("second transmission delivered at %d, want 55", at)
	}
}

func TestPickChannelPrefersLeastBacklogged(t *testing.T) {
	topo := topology.NewDLM(5, 5, 5) // PE pairs share two parallel buses
	m := New(topo, workload.NewFib(2), keepLocal{}, DefaultConfig())
	chs := topo.ChannelsBetween(0, 1)
	if len(chs) < 2 {
		t.Fatalf("expected parallel buses between 0 and 1, got %v", chs)
	}
	m.hot[chs[0]].busyUntil = 100
	if got := m.pickChannel(chs); got == chs[0] {
		t.Fatalf("pickChannel chose backlogged channel %d", chs[0])
	}
}

// TestPeriodicProcess pins the machine's one periodic mechanism, the
// self-re-arming payload event behind NewTicker and the sampler: a
// process first fires inside its first period, then exactly one period
// apart; an event its callback schedules one period ahead fires before
// the process's next firing, because the re-arm follows the callback;
// and a non-positive period panics.
func TestPeriodicProcess(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadInterval = 0
	m := New(topology.NewGrid(2, 2), workload.NewFib(2), keepLocal{}, cfg)
	const period = 20
	var ticks []sim.Time
	var order []string
	m.NewTicker(period, func() {
		now := m.eng.Now()
		ticks = append(ticks, now)
		order = append(order, "tick")
		m.eng.At(now+period, func() { order = append(order, "echo") })
	})
	m.eng.RunUntil(10 * period)
	if len(ticks) < 10 || ticks[0] < 0 || ticks[0] >= period {
		t.Fatalf("ticks %v: want 10 or 11, the first in [0, %d)", ticks, period)
	}
	for i := 1; i < len(ticks); i++ {
		if ticks[i]-ticks[i-1] != period {
			t.Fatalf("ticks %v are not %d apart", ticks, period)
		}
	}
	for i, o := range order {
		if want := []string{"tick", "echo"}[i%2]; o != want {
			t.Fatalf("firing order %v: entry %d is %s, want %s", order, i, o, want)
		}
	}
	for _, p := range []sim.Time{0, -5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTicker with period %d did not panic", p)
				}
			}()
			m.NewTicker(p, func() {})
		}()
	}
}

func TestTakeNewestQueuedGoalOrder(t *testing.T) {
	topo := topology.NewSingle()
	tree := workload.NewFib(3)
	m := New(topo, tree, keepLocal{}, DefaultConfig())
	pe := m.pes[0]
	g1 := m.newGoal(tree.Root, &jobState{tree: tree}, 0, -1)
	g2 := m.newGoal(tree.Root, &jobState{tree: tree}, 0, -1)
	g3 := m.newGoal(tree.Root, &jobState{tree: tree}, 0, -1)
	// Direct queue manipulation: the PE is idle so the first enqueue
	// starts service; g1 enters service, g2 and g3 wait.
	m.eng.Schedule(0, func() {
		pe.Accept(g1)
		pe.Accept(g2)
		pe.Accept(g3)
		if got := pe.TakeNewestQueuedGoal(); got != g3 {
			t.Errorf("first take = goal %d, want %d (newest)", got.ID, g3.ID)
		}
		if got := pe.TakeNewestQueuedGoal(); got != g2 {
			t.Errorf("second take = goal %d, want %d", got.ID, g2.ID)
		}
		if got := pe.TakeNewestQueuedGoal(); got != nil {
			t.Errorf("third take = goal %d, want nil (g1 in service)", got.ID)
		}
	})
	m.eng.Step()
}

func TestLoadMetrics(t *testing.T) {
	topo := topology.NewSingle()
	tree := workload.NewFib(3)
	cfg := DefaultConfig()
	cfg.LoadMetric = LoadQueuePlusPending
	m := New(topo, tree, keepLocal{}, cfg)
	pe := m.pes[0]
	pe.putPending(99, &pendingTask{})
	g := m.newGoal(tree.Root, &jobState{tree: tree}, 0, -1)
	m.eng.Schedule(0, func() {
		pe.Accept(g) // goes straight into service: queue stays empty
		if got := pe.Load(); got != 1 {
			t.Errorf("Load = %d, want 1 (0 queued + 1 pending)", got)
		}
		if pe.QueuedGoals() != 0 {
			t.Errorf("QueuedGoals = %d, want 0", pe.QueuedGoals())
		}
		if pe.PendingTasks() != 1 {
			t.Errorf("PendingTasks = %d, want 1", pe.PendingTasks())
		}
	})
	m.eng.Step()
}

func TestCommittedBusyPartial(t *testing.T) {
	topo := topology.NewSingle()
	tree := workload.NewFib(2) // root spawns fib(1), fib(0)
	cfg := DefaultConfig()     // grain 10
	m := New(topo, tree, keepLocal{}, cfg)
	pe := m.pes[0]
	m.eng.Schedule(0, func() { pe.Accept(m.newGoal(tree.Root, &jobState{tree: tree}, -1, -1)) })
	m.eng.RunUntil(4) // mid-service of the root goal
	if got := pe.committedBusy(); got != 4 {
		t.Fatalf("committedBusy at t=4 = %d, want 4", got)
	}
}

func TestAbortedRunReportsIncomplete(t *testing.T) {
	// A chain on one PE needs ~15 units/goal; MaxTime 50 cannot finish.
	tree := workload.NewChain(100)
	cfg := DefaultConfig()
	cfg.MaxTime = 50
	m := New(topology.NewSingle(), tree, keepLocal{}, cfg)
	st := m.Run()
	if st.Completed {
		t.Fatal("expected incomplete run")
	}
	if st.Makespan != 50 {
		t.Fatalf("Makespan = %d, want 50 (the abort time)", st.Makespan)
	}
}

func TestRunTwicePanics(t *testing.T) {
	m := New(topology.NewSingle(), workload.NewFib(2), keepLocal{}, DefaultConfig())
	m.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("second Run did not panic")
		}
	}()
	m.Run()
}

func TestConfigValidation(t *testing.T) {
	topo := topology.NewSingle()
	tree := workload.NewFib(2)
	bad := []func(c *Config){
		func(c *Config) { c.GrainTime = 0 },
		func(c *Config) { c.CombineTime = -1 },
		func(c *Config) { c.GoalHopTime = 0 },
		func(c *Config) { c.RootPE = 5 },
		func(c *Config) { c.MaxTime = 0 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		err := cfg.Validate(topo.Size())
		if err == nil {
			t.Errorf("case %d: Validate accepted the config", i)
			continue
		}
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != err.Error() {
					t.Errorf("case %d: New panicked with %v, want Validate's error %v", i, r, err)
				}
			}()
			New(topo, tree, keepLocal{}, cfg)
		}()
	}
}

// TestValidateLinks: a scripted link op must join PEs that share a
// channel — a link or a bus — and NewStream refuses one that does not
// with ValidateLinks' error, before the run starts.
func TestValidateLinks(t *testing.T) {
	for _, tc := range []struct {
		topo   *topology.Topology
		script string
		ok     bool
	}{
		{topology.NewGrid(4, 4), "droplink:a=0:b=1@t=5,restorelink:a=1:b=0@t=9", true},
		{topology.NewGrid(4, 4), "degradelink:a=0:b=1:x=2@t=5,restorelink:a=0:b=5@t=9", false},
		{topology.NewGridImplicit(4, 4), "droplink:a=0:b=5@t=5", false},
		{topology.NewDLM(4, 4, 4), "droplink:a=0:b=1@t=5", true}, // two shared buses
		{topology.NewDLM(4, 4, 4), "droplink:a=0:b=5@t=5", false},
	} {
		cfg := DefaultConfig()
		cfg.Scenario = scenario.MustParse(tc.script)
		err := cfg.ValidateLinks(func() *topology.Topology { return tc.topo })
		if (err == nil) != tc.ok {
			t.Errorf("%s on %s: ValidateLinks = %v, want ok=%v", tc.script, tc.topo.Name(), err, tc.ok)
			continue
		}
		if err != nil {
			func() {
				defer func() {
					if r := recover(); fmt.Sprint(r) != err.Error() {
						t.Errorf("%s on %s: NewStream panicked with %v, want %v", tc.script, tc.topo.Name(), r, err)
					}
				}()
				New(tc.topo, workload.NewFib(2), keepLocal{}, cfg)
			}()
		}
	}
}

// TestValidateLiveness: Validate refuses a script whose failures, in
// firing order up to MaxTime, leave no PE live — naming the event that
// fails the last one — and accepts one where a recover in between, a
// strike on a PE already down or a strike past the horizon leaves a PE
// live. A lone chaos generator never strikes the last live PE; one
// beside a scripted failure or another generator can.
func TestValidateLiveness(t *testing.T) {
	for _, tc := range []struct {
		pes    int
		script string
		last   string // the event named as failing the last live PE; "" when accepted
	}{
		{2, "fail:pes=0@t=10,fail:pes=1@t=20", "fail:pes=1@t=20"},
		{2, "crash:pes=1@t=10,fail:pes=0@t=20", "fail:pes=0@t=20"},
		{2, "fail:pes=0@t=10,recover@t=15,fail:pes=1@t=20", ""},
		{2, "fail:pes=0@t=10,recover:pes=0@t=15,crash:pes=1@t=20", ""},
		{2, "fail:pes=0@t=10,recover:pes=1@t=15,fail:pes=1@t=20", "fail:pes=1@t=20"},
		{2, "fail:pes=0@t=10,fail:pes=0@t=20", ""},
		{2, "recover@t=15,fail:pes=0@t=10,fail:pes=1@t=20", ""}, // fires fail, recover, fail
		{2, "fail:pes=0@t=10,fail:pes=1@t=2000001", ""},         // past MaxTime
		{16, "fail:pes=50%@t=10,fail:pes=0+1+2+3+4+5+6+7@t=20", "fail:pes=0+1+2+3+4+5+6+7@t=20"},
		{16, "fail:pes=50%@t=10,recover:pes=25%@t=15,fail:pes=0+1+2+3+4+5+6+7@t=20", ""},
		{16, "fail:pes=0+1+2+3+4+5+6+7@t=10,fail:pes=8+9+10+11+12+13+14@t=20,crash:pes=15+3@t=30", "crash:pes=15+3@t=30"},
		{2, "chaos:mtbf=10:mttr=5:until=1000@seed=1", ""},
		{2, "fail:pes=0@t=0,chaos:mtbf=10:mttr=5:until=1000@seed=4", "fail:pes=1@t=13"},
		{2, "chaos:mtbf=10:mttr=5:until=1000@seed=1,chaos:mtbf=10:mttr=5:until=1000@seed=99", "fail:pes=0@t=53"},
	} {
		cfg := DefaultConfig()
		cfg.Scenario = scenario.MustParse(tc.script)
		err := cfg.Validate(tc.pes)
		if tc.last == "" && err != nil {
			t.Errorf("%s on %d PEs: %v", tc.script, tc.pes, err)
		}
		if tc.last != "" && (err == nil || !strings.Contains(err.Error(), "event "+tc.last)) {
			t.Errorf("%s on %d PEs: error %v, want one naming %s", tc.script, tc.pes, err, tc.last)
		}
	}
}

func TestLoadMetricString(t *testing.T) {
	if LoadQueue.String() != "queue" || LoadQueuePlusPending.String() != "queue+pending" {
		t.Fatal("LoadMetric.String wrong")
	}
	if MsgGoal.String() != "goal" || MsgResponse.String() != "response" || MsgLoad.String() != "load" || MsgControl.String() != "control" {
		t.Fatal("MsgKind.String wrong")
	}
}

func TestBroadcastReachesAllBusMembers(t *testing.T) {
	topo := topology.NewBusGlobal(5)
	cfg := DefaultConfig()
	cfg.LoadInterval = 0 // quiesce periodic traffic
	m := New(topo, workload.NewFib(2), keepLocal{}, cfg)
	pe := m.pes[2]
	// Give the sender a distinctive load, then broadcast it.
	g1 := m.newGoal(workload.NewFib(3).Root, &jobState{tree: workload.NewFib(3)}, 0, -1)
	g2 := m.newGoal(workload.NewFib(3).Root, &jobState{tree: workload.NewFib(3)}, 0, -1)
	m.eng.Schedule(0, func() {
		pe.Accept(g1) // enters service
		pe.Accept(g2) // queued: load 1
		m.broadcastLoad(pe.lx, m.fanOff[pe.lx], m.fanOff[pe.lx+1])
	})
	m.eng.RunUntil(10)
	for _, other := range m.pes {
		if other.id == 2 {
			continue
		}
		load, heard := other.KnownLoad(2)
		if load != 1 || !heard {
			t.Fatalf("PE %d heard load %d (heard %v), want 1 from the broadcast", other.id, load, heard)
		}
	}
	// One bus transaction, not four.
	if m.hot[0].messages != 1 {
		t.Fatalf("bus carried %d messages, want 1", m.hot[0].messages)
	}
	if m.stats.MsgCounts[MsgLoad] != 1 {
		t.Fatalf("load message count = %d, want 1", m.stats.MsgCounts[MsgLoad])
	}
}

func TestKnownLoadUnknownNeighborPanics(t *testing.T) {
	m := New(topology.NewGrid(2, 2), workload.NewFib(2), keepLocal{}, DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("KnownLoad(non-neighbor) did not panic")
		}
	}()
	m.pes[0].KnownLoad(3) // PE 3 is diagonal: not a neighbor
}
