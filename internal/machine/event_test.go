package machine

import (
	"testing"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// recorded is one availability event as seen by a recorder node.
type recorded struct {
	at   sim.Time
	kind EventKind
	from int
}

// recorder is a keep-local strategy whose nodes subscribe to the
// availability stream per the flag and log what they receive — the
// white-box probe for event delivery.
type recorder struct {
	failure bool
	log     map[int][]recorded // PE id -> events
}

func newRecorder(failure bool) *recorder {
	return &recorder{failure: failure, log: map[int][]recorded{}}
}

func (r *recorder) Name() string { return "recorder" }
func (r *recorder) NewNode(pe *PE) NodeStrategy {
	return &recorderNode{s: r, pe: pe}
}

type recorderNode struct {
	s  *recorder
	pe *PE
}

func (n *recorderNode) WantsFailureEvents() bool { return n.s.failure }

func (n *recorderNode) HandleEvent(ev Event) {
	switch ev.Kind {
	case GoalCreated, GoalArrived:
		n.pe.Accept(ev.Goal)
	case Control:
	default:
		n.s.log[n.pe.ID()] = append(n.s.log[n.pe.ID()],
			recorded{at: n.pe.Now(), kind: ev.Kind, from: ev.From})
	}
}

// TestFailureEventsReachNeighbors pins PEFailed/PERecovered delivery:
// the notification rides the failing PE's immediate sentinel broadcast,
// so neighbors hear it one control-hop later, and non-subscribing nodes
// hear nothing.
func TestFailureEventsReachNeighbors(t *testing.T) {
	rec := newRecorder(true)
	cfg := DefaultConfig()
	cfg.LoadInterval = 0 // isolate the env broadcasts
	cfg.Scenario = scenario.MustParse("fail:pes=1@t=10,recover@t=50")
	New(topology.NewGrid(1, 3), workload.NewChain(40), rec, cfg).Run()

	for _, pe := range []int{0, 2} { // both neighbors of PE 1
		evs := rec.log[pe]
		if len(evs) != 2 {
			t.Fatalf("PE %d saw %d env events, want 2: %+v", pe, len(evs), evs)
		}
		if evs[0].kind != PEFailed || evs[0].from != 1 || evs[0].at != 10+cfg.CtrlHopTime {
			t.Fatalf("PE %d first event = %+v, want PEFailed from 1 at t=%d", pe, evs[0], 10+cfg.CtrlHopTime)
		}
		if evs[1].kind != PERecovered || evs[1].from != 1 || evs[1].at < 50 {
			t.Fatalf("PE %d second event = %+v, want PERecovered from 1 after t=50", pe, evs[1])
		}
	}
	if len(rec.log[1]) != 0 {
		t.Fatalf("the failed PE heard its own broadcast: %+v", rec.log[1])
	}

	// Without the subscription, the same run delivers nothing.
	silent := newRecorder(false)
	cfg2 := DefaultConfig()
	cfg2.LoadInterval = 0
	cfg2.Scenario = scenario.MustParse("fail:pes=1@t=10,recover@t=50")
	New(topology.NewGrid(1, 3), workload.NewChain(40), silent, cfg2).Run()
	if len(silent.log) != 0 {
		t.Fatalf("non-subscribing nodes received env events: %+v", silent.log)
	}
}

// TestFailureEventsIdempotentOnDualChannels pins the broadcast
// contract for the env notification: a double-lattice pair hears every
// broadcast once per shared bus, so event delivery must dedup on the
// availability transition — each neighbor reacts exactly once per
// failure and once per recovery, however many channels carried the
// word.
func TestFailureEventsIdempotentOnDualChannels(t *testing.T) {
	topo := topology.NewDLM(4, 4, 4) // PEs 0 and 1 share two buses
	if n := len(topo.ChannelsBetween(0, 1)); n != 2 {
		t.Fatalf("test premise broken: PEs 0-1 share %d channels, want 2", n)
	}
	rec := newRecorder(true)
	cfg := DefaultConfig()
	cfg.LoadInterval = 0
	cfg.Scenario = scenario.MustParse("fail:pes=1@t=10,recover@t=100")
	New(topo, workload.NewChain(60), rec, cfg).Run()

	for _, nb := range topo.Neighbors(1) {
		var fails, recovers int
		for _, ev := range rec.log[nb] {
			switch ev.kind {
			case PEFailed:
				fails++
			case PERecovered:
				recovers++
			}
		}
		if fails != 1 || recovers != 1 {
			t.Errorf("neighbor %d heard %d PEFailed / %d PERecovered, want exactly 1/1 (%d shared channels)",
				nb, fails, recovers, len(topo.ChannelsBetween(nb, 1)))
		}
	}
}

// TestEnvNotificationCostsNoExtraTraffic pins the piggyback design: the
// availability notification rides the sentinel load broadcast, so a
// failure-aware subscriber (that takes no actions) leaves the run's
// message counts and event sequence identical to a non-subscriber's.
func TestEnvNotificationCostsNoExtraTraffic(t *testing.T) {
	run := func(aware bool) fingerprint {
		cfg := DefaultConfig()
		cfg.Scenario = scenario.MustParse("fail:pes=1@t=200,recover@t=900")
		return fp(New(topology.NewGrid(1, 3), workload.NewFib(8), newRecorder(aware), cfg).Run())
	}
	if a, b := run(true), run(false); a != b {
		t.Fatalf("passive subscription changed the run: %+v vs %+v", a, b)
	}
}
