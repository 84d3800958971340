package machine

import (
	"testing"

	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// keepLocal is a minimal strategy: every goal runs where it was created.
type keepLocal struct{}

func (keepLocal) Name() string                { return "keep-local" }
func (keepLocal) Setup(m *Machine)            {}
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

func TestTransmitSerializesFIFO(t *testing.T) {
	topo := topology.NewGrid(1, 2)
	cfg := DefaultConfig()
	cfg.LoadInterval = 0 // quiesce periodic load broadcasts
	m := New(topo, workload.NewFib(2), keepLocal{}, cfg)
	ch := &m.chans[0]
	var deliveries []sim.Time
	record := func() { deliveries = append(deliveries, m.eng.Now()) }
	// Three simultaneous 5-unit transmissions must serialize: 5, 10, 15.
	m.eng.Schedule(0, func() {
		m.transmitFunc(ch, 5, record)
		m.transmitFunc(ch, 5, record)
		m.transmitFunc(ch, 5, record)
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
	if ch.busyTotal != 15 || ch.messages != 3 {
		t.Fatalf("busyTotal=%d messages=%d, want 15/3", ch.busyTotal, ch.messages)
	}
}

func TestTransmitAfterIdleStartsImmediately(t *testing.T) {
	topo := topology.NewGrid(1, 2)
	cfg := DefaultConfig()
	cfg.LoadInterval = 0
	m := New(topo, workload.NewFib(2), keepLocal{}, cfg)
	ch := &m.chans[0]
	var at sim.Time
	m.eng.Schedule(0, func() { m.transmitFunc(ch, 5, func() {}) })
	m.eng.Schedule(50, func() { m.transmitFunc(ch, 5, func() { at = m.eng.Now() }) })
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
	m.chans[chs[0]].busyUntil = 100
	if got := m.pickChannel(chs); got == chs[0] {
		t.Fatalf("pickChannel chose backlogged channel %d", chs[0])
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
	pe.pending.put(99, &pendingTask{})
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
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			cfg := DefaultConfig()
			mutate(&cfg)
			New(topo, tree, keepLocal{}, cfg)
		}()
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
		m.broadcastLoad(pe)
	})
	m.eng.RunUntil(10)
	for _, other := range m.pes {
		if other.id == 2 {
			continue
		}
		load, seenAt := other.KnownLoad(2)
		if load != 1 || seenAt < 0 {
			t.Fatalf("PE %d heard load %d (seen %d), want 1 from the broadcast", other.id, load, seenAt)
		}
	}
	// One bus transaction, not four.
	if m.chans[0].messages != 1 {
		t.Fatalf("bus carried %d messages, want 1", m.chans[0].messages)
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
