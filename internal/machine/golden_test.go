package machine_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"cwnsim/internal/core"
	"cwnsim/internal/machine"
	"cwnsim/internal/metrics"
	"cwnsim/internal/scenario"
	"cwnsim/internal/topology"
	"cwnsim/internal/trace"
	"cwnsim/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/golden_digests.json from the current engine")

const goldenFile = "testdata/golden_digests.json"

// goldenCase is one pinned run of the golden matrix: a configuration
// that exercises one feature of the engine, digested part by part so a
// divergence names the observable that moved.
type goldenCase struct {
	name  string
	topo  func() *topology.Topology
	src   func() machine.JobSource
	strat func() machine.Strategy
	cfg   func(*machine.Config)
	trace bool // record a Collector stream and export Perfetto spans
}

func goldenCases() []goldenCase {
	fib := func(n int) *workload.Tree { return workload.NewFib(n) }
	cwn := func() machine.Strategy { return core.NewCWN(5, 2) }
	gm := func() machine.Strategy { return core.NewGradient(1, 2, 20) }
	stream := func() machine.JobSource { return machine.NewFixedInterval(fib(9), 130, 40) }
	script := func(s string) func(*machine.Config) {
		return func(c *machine.Config) {
			c.MaxTime = 40000
			c.SampleInterval = 250
			c.Scenario = scenario.MustParse(s)
		}
	}
	return []goldenCase{
		{name: "sampling-monitor", topo: func() *topology.Topology { return topology.NewGrid(6, 6) },
			src: func() machine.JobSource { return machine.NewPoisson(fib(9), 60, 80) }, strat: cwn,
			cfg: func(c *machine.Config) { c.SampleInterval = 50; c.MonitorPE = true; c.Warmup = 500 }},
		{name: "traced-perfetto", topo: func() *topology.Topology { return topology.NewGrid(4, 4) },
			src: func() machine.JobSource { return machine.NewSingleJob(fib(11)) }, strat: gm,
			cfg: func(*machine.Config) {}, trace: true},
		{name: "blackout", topo: func() *topology.Topology { return topology.NewTorus(6, 6) },
			src: stream, strat: func() machine.Strategy { s := core.NewCWN(5, 2); s.FailureAware = true; return s },
			cfg: script("fail:pes=25%@t=400,recover@t=1100"), trace: true},
		{name: "crash-ckpt-retry", topo: func() *topology.Topology { return topology.NewTorus(6, 6) },
			src: stream, strat: cwn,
			cfg: func(c *machine.Config) {
				script("chaos:mtbf=800:mttr=400:until=6000:crash:domain=block:2x2@seed=11,checkpoint:every=700:cost=2@t=0")(c)
				c.RetryLimit = 2
				c.RetryBackoff = 60
			}, trace: true},
		// The root PE crashes while the root tasks of six jobs wait on
		// it, and no other state of theirs is there: the crash sweeps
		// its pending tasks in goal-ID order, which decides the order
		// the six jobs abort and re-inject.
		{name: "crash-sweep-order", topo: func() *topology.Topology { return topology.NewTorus(6, 6) },
			src: func() machine.JobSource { return machine.NewFixedInterval(fib(9), 60, 40) }, strat: cwn,
			cfg: script("crash:pes=0@t=1500,recover@t=1800")},
		{name: "link-degrade-down", topo: func() *topology.Topology { return topology.NewGrid(5, 5) },
			src: stream, strat: gm,
			cfg: script("degradelink:a=0:b=1:x=3@t=300,droplink:a=6:b=7@t=700,droplink:a=0:b=5@t=900,restorelink:a=6:b=7@t=2000,restorelink:a=0:b=1@t=2500")},
		{name: "load-shock", topo: func() *topology.Topology { return topology.NewGrid(5, 5) },
			src: func() machine.JobSource { return machine.NewPoisson(fib(8), 90, 120) }, strat: cwn,
			cfg: script("shock:x=3@t=1500,shock:x=1@t=3000")},
		{name: "early-ops", topo: func() *topology.Topology { return topology.NewGrid(4, 4) },
			src: stream, strat: gm,
			cfg: script("slow:pes=0:x=0.5@t=5,fail:pes=3@t=12,recover@t=300,restore@t=400")},
		{name: "hetero-speeds", topo: func() *topology.Topology { return topology.NewGrid(4, 4) },
			src: stream, strat: cwn,
			cfg: func(c *machine.Config) {
				c.PESpeeds = make([]float64, 16)
				for i := range c.PESpeeds {
					c.PESpeeds[i] = 0.5 + 0.25*float64(i%4)
				}
			}},
		{name: "sojourn-series-bound", topo: func() *topology.Topology { return topology.NewGrid(4, 4) },
			src: func() machine.JobSource { return machine.NewPoisson(fib(8), 70, 400) }, strat: cwn,
			cfg: func(c *machine.Config) {
				script("slow:pes=25%:x=0.5@t=2000,restore@t=9000")(c)
				c.SampleInterval = 40
				c.MonitorPE = true
				c.SojournBound = 64
				c.SeriesBound = 16
			}},
		{name: "ideal-closed", topo: func() *topology.Topology { return topology.NewGrid(5, 5) },
			src:   func() machine.JobSource { return machine.NewSingleJob(fib(12)) },
			strat: func() machine.Strategy { return core.NewIdeal() }, cfg: func(*machine.Config) {}},
		{name: "ideal-open-monitored", topo: func() *topology.Topology { return topology.NewGrid(4, 4) },
			src: stream, strat: func() machine.Strategy { return core.NewIdeal() },
			cfg: func(c *machine.Config) { c.SampleInterval = 100; c.MonitorPE = true }},
		// Bus broadcasts: each DLM load word reaches three bus-mates, and
		// PE pairs sharing two buses hear one broadcast twice.
		{name: "dlm-buses", topo: func() *topology.Topology { return topology.NewDLM(8, 8, 4) },
			src: stream, strat: func() machine.Strategy { return core.NewCWN(5, 1) },
			cfg: func(c *machine.Config) { c.SampleInterval = 100 }},
		// A hub with 39 channels: one broadcast's words run across 39
		// fan entries, and its runs end wherever two consecutive
		// channels' backlogs differ.
		{name: "star-wide-fan", topo: func() *topology.Topology { return topology.NewStar(40) },
			src: stream, strat: cwn, cfg: func(*machine.Config) {}},
		// Buses crossing the boundary of a 2-shard machine: one broadcast
		// delivers partly on its own shard and partly through the outbox.
		{name: "dlm-2shard", topo: func() *topology.Topology { return topology.NewDLM(8, 8, 4) },
			src: stream, strat: func() machine.Strategy { return core.NewCWN(5, 1) },
			cfg: func(c *machine.Config) { c.Shards = 2 }},
		// GM, which reads no load word, on the same 2-shard DLM: its
		// words still cross the boundary through the outbox.
		{name: "gm-2shard", topo: func() *topology.Topology { return topology.NewDLM(8, 8, 4) },
			src: stream, strat: gm, cfg: func(c *machine.Config) { c.Shards = 2 }},
		// A closed failure-aware GM run on two shards: a PE on each side
		// of the boundary fails and recovers, so availability broadcasts
		// reach GM nodes on both shards, and the run ends at a barrier.
		{name: "gm-fa-2shard-closed", topo: func() *topology.Topology { return topology.NewGrid(6, 6) },
			src:   func() machine.JobSource { return machine.NewSingleJob(fib(13)) },
			strat: func() machine.Strategy { s := core.NewGradient(1, 2, 20); s.FailureAware = true; return s },
			cfg: func(c *machine.Config) {
				script("fail:pes=14+21@t=150,recover@t=500")(c)
				c.Shards = 2
			}},
		// RoundRobin, another strategy reading no load word, under link
		// outages: the words held at a downed link flush at its restore.
		{name: "roundrobin-links", topo: func() *topology.Topology { return topology.NewGrid(5, 5) },
			src: stream, strat: func() machine.Strategy { return core.NewRoundRobin() },
			cfg: script("droplink:a=6:b=7@t=300,droplink:a=0:b=5@t=500,restorelink:a=6:b=7@t=1500,restorelink:a=0:b=5@t=2000")},
		// A sampled, scripted Poisson stream on two shards whose
		// injection series outgrows its bound: every completion, on
		// either shard, is bucketed at the stride the run's latest
		// injections need.
		{name: "inj-bound-2shard", topo: func() *topology.Topology { return topology.NewGrid(8, 8) },
			src: func() machine.JobSource { return machine.NewPoisson(fib(9), 45, 250) }, strat: cwn,
			cfg: func(c *machine.Config) {
				script("slow:pes=50%:x=0.5@t=1000,restore@t=9000")(c)
				c.SampleInterval = 37
				c.SeriesBound = 4
				c.MaxTime = 20000
				c.Shards = 2
			}},
	}
}

// digester folds values into an FNV-64a hash.
type digester struct{ buf bytes.Buffer }

func (d *digester) u(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		d.buf.Write(b[:])
	}
}

func (d *digester) f(vs ...float64) {
	for _, v := range vs {
		d.u(math.Float64bits(v))
	}
}

func (d *digester) series(s metrics.Series) {
	d.u(uint64(len(s.Points)))
	for _, p := range s.Points {
		d.f(p.T, p.V)
	}
}

func (d *digester) sum() string {
	h := fnv.New64a()
	h.Write(d.buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenDigest runs one case and digests its observables by part.
func goldenDigest(t *testing.T, c goldenCase) map[string]string {
	t.Helper()
	cfg := machine.DefaultConfig()
	c.cfg(&cfg)
	var col trace.Collector
	var spans trace.Spans
	if c.trace {
		cfg.Trace = trace.Multi{&col, &spans}
	}
	st := machine.NewStream(c.topo(), c.src(), c.strat(), cfg).Run()

	out := map[string]string{}
	// The run's outcome: every field the benchmark's digest hashes except
	// the event count, which the work part digests alone, so a diff says
	// whether the simulated run moved or only the work it counted.
	var d digester
	d.u(uint64(st.Makespan), uint64(st.Result), uint64(st.JobsDone),
		uint64(st.JobsAborted), uint64(st.JobsRetried), uint64(st.JobsAbandoned))
	for _, n := range st.MsgCounts {
		d.u(uint64(n))
	}
	d.f(st.SteadySojourn.Percentile(0.50), st.SteadySojourn.Percentile(0.99))
	out["outcome"] = d.sum()

	d = digester{}
	d.u(st.Events)
	out["work"] = d.sum()

	d = digester{}
	for i := range st.GoalsPerPE {
		d.u(uint64(st.GoalsPerPE[i]), uint64(st.BusyPerPE[i]))
	}
	for i := range st.ChannelMsgs {
		d.u(uint64(st.ChannelMsgs[i]), uint64(st.ChannelBusy[i]))
	}
	for _, r := range st.JobRecords {
		d.u(uint64(r.ID), uint64(r.InjectedAt), uint64(r.DoneAt), uint64(r.Result))
	}
	d.u(uint64(st.GoalsLost), uint64(st.GoalsRequeued), uint64(st.ServiceAborts),
		uint64(st.RootRedirects), uint64(st.DownPETime), uint64(st.JobsInjected))
	out["accounting"] = d.sum()

	d = digester{}
	d.series(st.Timeline)
	d.series(st.QueueLen)
	d.series(st.QueueImbalance)
	d.series(st.SojournWindows)
	d.series(st.InjSojournWindows)
	out["series"] = d.sum()

	d = digester{}
	for _, f := range st.Monitor.Frames {
		d.u(uint64(f.At))
		d.f(f.Util...)
	}
	out["monitor"] = d.sum()

	if c.trace {
		d = digester{}
		for _, ev := range col.Events {
			d.u(uint64(ev.At), uint64(ev.Kind), uint64(ev.PE), uint64(ev.Other), uint64(ev.Goal))
		}
		out["trace"] = d.sum()
		var buf bytes.Buffer
		if err := spans.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		d = digester{}
		d.buf = buf
		out["perfetto"] = d.sum()
	}
	return out
}

// TestGoldenDigests pins every observable of a feature matrix run on the
// one-shard engine, and of four 2-shard runs — outcome, work (the event
// count), accounting, sampled series, monitor frames, the trace stream
// and its Perfetto export — against digests recorded in
// testdata/golden_digests.json. Regenerate with -update-golden only for
// an intended change in simulated behavior.
func TestGoldenDigests(t *testing.T) {
	got := map[string]map[string]string{}
	for _, c := range goldenCases() {
		got[c.name] = goldenDigest(t, c)
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(goldenFile), append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(filepath.FromSlash(goldenFile))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(got))
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, ok := want[n]; !ok {
			t.Errorf("%s: no pinned digest (run with -update-golden)", n)
			continue
		}
		for part, g := range got[n] {
			if w := want[n][part]; g != w {
				t.Errorf("%s: %s digest %s, pinned %s", n, part, g, w)
			}
		}
		for part := range want[n] {
			if _, ok := got[n][part]; !ok {
				t.Errorf("%s: pinned %s digest no longer produced", n, part)
			}
		}
	}
}
