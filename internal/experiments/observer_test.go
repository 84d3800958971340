package experiments

import "testing"

// TestMonitoringDoesNotChangeResult pins the PR 2 observer-effect fix:
// enabling SampleInterval/MonitorPE used to draw the sampler's stagger
// phase from the engine stream, shifting every subsequent tie-break
// draw — turning monitoring on changed the simulated result. Observer
// phases now come from a dedicated salted stream, so the simulated
// system (makespan, result, busy time, message counts) must be
// bit-for-bit identical with sampling on and off.
func TestMonitoringDoesNotChangeResult(t *testing.T) {
	cases := []struct {
		strat StrategySpec
		topo  TopoSpec
	}{
		{CWN(9, 2), Grid(10)},
		{GM(1, 2, 20), Grid(10)},
		{ACWN(9, 2, 3, 40), DLM(10, 5)},
	}
	for _, c := range cases {
		base := RunSpec{Topo: c.topo, Workload: Fib(11), Strategy: c.strat}
		plain, err := base.ExecuteErr()
		if err != nil {
			t.Fatalf("%s on %s: %v", c.strat.Label(), c.topo.Label(), err)
		}
		sampled := base
		sampled.SampleInterval = 50
		sampled.MonitorPE = true
		mon, err := sampled.ExecuteErr()
		if err != nil {
			t.Fatalf("%s on %s (monitored): %v", c.strat.Label(), c.topo.Label(), err)
		}
		if mon.Stats.Timeline.Len() == 0 || mon.Stats.Monitor.Len() == 0 {
			t.Fatalf("%s on %s: monitoring produced no samples", c.strat.Label(), c.topo.Label())
		}
		if plain.Makespan != mon.Makespan {
			t.Errorf("%s on %s: makespan %d with sampling off vs %d on — the observer changed the result",
				c.strat.Label(), c.topo.Label(), plain.Makespan, mon.Makespan)
		}
		if plain.Stats.Result != mon.Stats.Result {
			t.Errorf("%s on %s: result %d vs %d under monitoring",
				c.strat.Label(), c.topo.Label(), plain.Stats.Result, mon.Stats.Result)
		}
		if plain.Stats.TotalBusy != mon.Stats.TotalBusy || plain.Stats.TotalMessages() != mon.Stats.TotalMessages() {
			t.Errorf("%s on %s: busy/messages %d/%d vs %d/%d under monitoring",
				c.strat.Label(), c.topo.Label(),
				plain.Stats.TotalBusy, plain.Stats.TotalMessages(),
				mon.Stats.TotalBusy, mon.Stats.TotalMessages())
		}
	}
}

// TestMonitoringDoesNotChangeStream is the open-system variant: a
// Poisson stream's latency distribution must not move when sampling is
// switched on.
func TestMonitoringDoesNotChangeStream(t *testing.T) {
	base := RunSpec{
		Topo:     Grid(5),
		Workload: Fib(8),
		Strategy: CWN(3, 1),
		Arrival:  PoissonArrivals(80, 40),
		Warmup:   400,
	}
	plain, err := base.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	sampled := base
	sampled.SampleInterval = 100
	mon, err := sampled.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != mon.Makespan || plain.SojournP99() != mon.SojournP99() || plain.MeanSojourn() != mon.MeanSojourn() {
		t.Fatalf("sampling changed the stream: makespan %d vs %d, p99 %f vs %f",
			plain.Makespan, mon.Makespan, plain.SojournP99(), mon.SojournP99())
	}
}
