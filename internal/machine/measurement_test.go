package machine

import (
	"testing"

	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// TestSampleFirstWindowExact pins the first-window utilization fix: a
// chain on a single PE is 100% busy from injection to completion, so
// every timeline point must read exactly 100% — including the first,
// staggered sample, whose window is shorter than SampleInterval. The
// old code divided the first window's busy time by the full interval
// and understated it.
func TestSampleFirstWindowExact(t *testing.T) {
	tree := workload.NewChain(100)
	cfg := DefaultConfig()
	cfg.LoadInterval = 0 // single PE: no neighbors to inform
	cfg.SampleInterval = 64
	cfg.MonitorPE = true
	st := New(topology.NewSingle(), tree, keepLocal{}, cfg).Run()
	if !st.Completed {
		t.Fatal("run did not complete")
	}
	if st.Timeline.Len() < 10 {
		t.Fatalf("only %d timeline samples, expected a long busy run", st.Timeline.Len())
	}
	for _, p := range st.Timeline.Points {
		if p.V != 100 {
			t.Fatalf("sample at t=%.0f reads %.3f%%, want exactly 100 (PE continuously busy)", p.T, p.V)
		}
	}
	if st.Monitor.Len() != st.Timeline.Len() {
		t.Fatalf("monitor frames %d != timeline samples %d", st.Monitor.Len(), st.Timeline.Len())
	}
	for _, fr := range st.Monitor.Frames {
		for pe, u := range fr.Util {
			if u != 1 {
				t.Fatalf("frame at t=%d: PE %d utilization %.3f, want exactly 1", fr.At, pe, u)
			}
		}
	}
}

// TestChannelUtilizationNeverExceedsFull pins the channel-accounting
// fix: occupancy is charged in full at transmit time, so a run that
// ends with a long message still on the wire used to report > 100%
// channel utilization. Only the elapsed portion may be committed.
func TestChannelUtilizationNeverExceedsFull(t *testing.T) {
	topo := topology.NewGrid(1, 2)
	cfg := DefaultConfig()
	cfg.LoadInterval = 0
	m := New(topo, workload.NewFib(2), keepLocal{}, cfg)
	// A transmission far longer than the run keeps the channel busy past
	// the makespan.
	m.eng.Schedule(0, func() { m.transmitFunc(0, 100_000, func() {}) })
	st := m.Run()
	if !st.Completed {
		t.Fatal("run did not complete")
	}
	if u := st.ChannelUtilization(0); u != 1 {
		t.Fatalf("ChannelUtilization = %f, want exactly 1 (busy the whole run, no more)", u)
	}
	if u := st.MaxChannelUtilization(); u > 1 {
		t.Fatalf("MaxChannelUtilization = %f > 1", u)
	}
}

// TestChannelBusyCommittedAtMaxTime covers the saturation variant: a
// stream cut off at MaxTime with queued transmissions must report only
// occupancy elapsed by the horizon.
func TestChannelBusyCommittedAtMaxTime(t *testing.T) {
	topo := topology.NewGrid(1, 2)
	cfg := DefaultConfig()
	cfg.LoadInterval = 0
	cfg.MaxTime = 500
	m := New(topo, workload.NewChain(200), keepLocal{}, cfg)
	m.eng.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			m.transmitFunc(0, 200, func() {}) // 2000 units queued on a 500-unit run
		}
	})
	st := m.Run()
	if st.Completed {
		t.Fatal("run completed despite MaxTime cutoff")
	}
	if st.ChannelBusy[0] != cfg.MaxTime {
		t.Fatalf("ChannelBusy = %d, want %d (the whole truncated run)", st.ChannelBusy[0], cfg.MaxTime)
	}
	if u := st.ChannelUtilization(0); u > 1 {
		t.Fatalf("ChannelUtilization = %f > 1 at MaxTime", u)
	}
}

// TestSteadyThroughputWindow pins the like-with-like window fix:
// SteadyThroughput counts completions inside the post-warm-up window
// and divides by that window, matching the warm-up-excluded sojourn
// percentiles, while Throughput keeps describing the whole run.
func TestSteadyThroughputWindow(t *testing.T) {
	tree := workload.NewFib(5)
	cfg := DefaultConfig()
	const jobs = 10
	const gap = 500
	cfg.Warmup = 2*gap + 1
	st := NewStream(topology.NewSingle(), NewFixedInterval(tree, gap, jobs), keepLocal{}, cfg).Run()
	if !st.Completed {
		t.Fatal("stream did not drain")
	}
	var steadyDone int64
	for _, r := range st.JobRecords {
		if r.DoneAt >= cfg.Warmup {
			steadyDone++
		}
	}
	if st.SteadyJobsDone != steadyDone {
		t.Fatalf("SteadyJobsDone = %d, want %d", st.SteadyJobsDone, steadyDone)
	}
	want := float64(steadyDone) / float64(st.Makespan-cfg.Warmup)
	if got := st.SteadyThroughput(); got != want {
		t.Fatalf("SteadyThroughput = %f, want %f", got, want)
	}
	if whole := st.Throughput(); whole == st.SteadyThroughput() {
		t.Fatalf("steady and whole-run throughput coincide (%f): warm-up window not excluded", whole)
	}

	// No warm-up: the two coincide by definition.
	cfg2 := DefaultConfig()
	st2 := NewStream(topology.NewSingle(), NewFixedInterval(tree, gap, jobs), keepLocal{}, cfg2).Run()
	if st2.SteadyThroughput() != st2.Throughput() {
		t.Fatalf("no-warm-up SteadyThroughput %f != Throughput %f", st2.SteadyThroughput(), st2.Throughput())
	}
}

// TestObserverStreamIsDisjoint checks the machine-level half of the
// observer-effect fix directly: building a sampling machine must leave
// the engine stream exactly where a non-sampling build leaves it.
func TestObserverStreamIsDisjoint(t *testing.T) {
	tree := workload.NewFib(3)
	build := func(sample sim.Time) *Machine {
		cfg := DefaultConfig()
		cfg.SampleInterval = sample
		return New(topology.NewGrid(3, 3), tree, keepLocal{}, cfg)
	}
	a := build(0).Engine().Rng().Int63()
	b := build(50).Engine().Rng().Int63()
	if a != b {
		t.Fatalf("sampler construction perturbed the engine stream: %d vs %d", a, b)
	}
}
