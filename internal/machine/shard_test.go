package machine

import (
	"math"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// spread is a load-aware test strategy that generates real cross-shard
// traffic: each new goal is offloaded to the least-loaded neighbor when
// that neighbor looks strictly less loaded, so placement depends on
// piggybacked loads, broadcast timing and RNG tie-breaks — the full
// protocol surface.
type spread struct{}

func (spread) Name() string                { return "spread" }
func (spread) NewNode(pe *PE) NodeStrategy { return spreadNode{pe} }

type spreadNode struct{ pe *PE }

func (n spreadNode) HandleEvent(ev Event) {
	switch ev.Kind {
	case GoalCreated:
		if nbr, load := n.pe.LeastLoadedNeighbor(); nbr >= 0 && load < n.pe.Load() {
			n.pe.SendGoal(nbr, ev.Goal)
			return
		}
		n.pe.Accept(ev.Goal)
	case GoalArrived:
		n.pe.Accept(ev.Goal)
	}
}

// rotate is a load-blind test strategy: each PE sends its new goals to
// its neighbors in turn and keeps every goal that arrives, so work
// spreads without any neighbor view.
type rotate struct{}

func (rotate) Name() string                { return "rotate" }
func (rotate) LoadBlind() string           { return "new goals rotate over the neighbors" }
func (rotate) NewNode(pe *PE) NodeStrategy { return &rotateNode{pe: pe} }

type rotateNode struct {
	pe   *PE
	next int
}

func (n *rotateNode) HandleEvent(ev Event) {
	switch ev.Kind {
	case GoalCreated:
		nbrs := n.pe.Neighbors()
		n.next++
		n.pe.SendGoal(nbrs[n.next%len(nbrs)], ev.Goal)
	case GoalArrived:
		n.pe.Accept(ev.Goal)
	}
}

// shardCase is one (topology, strategy, source) cell of the shard
// cross-check matrix.
type shardCase struct {
	name  string
	topo  func() *topology.Topology
	strat Strategy
	open  bool
}

func shardCases() []shardCase {
	return []shardCase{
		{"closed/grid5x5/spread", func() *topology.Topology { return topology.NewGrid(5, 5) }, spread{}, false},
		{"closed/ring12/pushright", func() *topology.Topology { return topology.NewRing(12) }, pushRight{}, false},
		{"open/grid4x4/spread", func() *topology.Topology { return topology.NewGrid(4, 4) }, spread{}, true},
		{"open/torus4x4/spread", func() *topology.Topology { return topology.NewTorus(4, 4) }, spread{}, true},
		// Bus broadcasts split across shards: a DLM's buses cross every
		// partition boundary, so one load broadcast delivers partly on its
		// own shard and partly through the outbox.
		{"open/dlm8x8/spread", func() *topology.Topology { return topology.NewDLM(8, 8, 4) }, spread{}, true},
	}
}

func (c shardCase) run(t *testing.T, shards int, serial bool) *Stats {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.ShardSerial = serial
	tree := workload.NewFib(10)
	var src JobSource = NewSingleJob(tree)
	if c.open {
		src = NewFixedInterval(tree, 120, 8)
	}
	return NewStream(c.topo(), src, c.strat, cfg).Run()
}

// shardFP extends the event-level fingerprint with every per-PE and
// per-job detail a divergence could disturb; p99 is the bits of the
// sojourn p99, like the fingerprint's mean.
type shardFP struct {
	fingerprint
	goalsPerPE []int64
	busyPerPE  []sim.Time
	chanMsgs   []int64
	records    []JobRecord
	p99        uint64
}

func shardFPOf(st *Stats) shardFP {
	return shardFP{
		fingerprint: fp(st),
		goalsPerPE:  st.GoalsPerPE,
		busyPerPE:   st.BusyPerPE,
		chanMsgs:    st.ChannelMsgs,
		records:     st.JobRecords,
		p99:         math.Float64bits(st.SojournP99()),
	}
}

// TestShardOneBitForBitSequential pins the Config.Shards contract that
// 0 (the default) and 1 are the same one-shard run: no code path may
// branch on the requested count instead of the effective one, across
// every matrix cell.
func TestShardOneBitForBitSequential(t *testing.T) {
	for _, c := range shardCases() {
		t.Run(c.name, func(t *testing.T) {
			zero := shardFPOf(c.run(t, 0, false))
			one := shardFPOf(c.run(t, 1, false))
			if !reflect.DeepEqual(zero, one) {
				t.Fatalf("Shards=1 diverged from Shards=0:\nzero: %+v\none:  %+v", zero.fingerprint, one.fingerprint)
			}
		})
	}
}

// atLeastTwoProcs raises GOMAXPROCS to at least 2 for the rest of the
// test. A group runs on min(K, GOMAXPROCS) runners, so on a one-CPU
// host a parallel-vs-serial cross-check would otherwise compare the
// serial replay with itself.
func atLeastTwoProcs(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(n) })
	}
}

// TestShardParallelMatchesSerial pins the determinism claim for real
// parallelism: a K-shard run on several runner goroutines must equal
// its single-goroutine window-by-window replay (ShardSerial) bit for
// bit — the proof that the thread schedule cannot leak into results.
// K = 3 leaves the runners uneven shard counts.
func TestShardParallelMatchesSerial(t *testing.T) {
	atLeastTwoProcs(t)
	for _, c := range shardCases() {
		for _, k := range []int{2, 3, 4} {
			t.Run(c.name, func(t *testing.T) {
				par := shardFPOf(c.run(t, k, false))
				ser := shardFPOf(c.run(t, k, true))
				if !reflect.DeepEqual(par, ser) {
					t.Fatalf("K=%d parallel diverged from serial replay:\npar: %+v\nser: %+v", k, par.fingerprint, ser.fingerprint)
				}
			})
		}
	}
}

// TestShardParallelRepeatable runs the same parallel spec twice:
// identical results, independent of goroutine scheduling between the
// two runs.
func TestShardParallelRepeatable(t *testing.T) {
	c := shardCases()[0]
	a := shardFPOf(c.run(t, 4, false))
	b := shardFPOf(c.run(t, 4, false))
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical K=4 runs diverged:\n1st: %+v\n2nd: %+v", a.fingerprint, b.fingerprint)
	}
}

// TestShardConservationVsSequential checks what K>=2 and one-shard runs
// must still agree on even though same-timestamp event order differs:
// the workload's size and answer, the job stream, and the internal
// consistency of the merged per-PE accounting.
func TestShardConservationVsSequential(t *testing.T) {
	for _, c := range shardCases() {
		t.Run(c.name, func(t *testing.T) {
			seq := c.run(t, 0, false)
			for _, k := range []int{2, 3, 4} {
				st := c.run(t, k, false)
				if !st.Completed || !seq.Completed {
					t.Fatalf("K=%d: completed=%v, sequential completed=%v", k, st.Completed, seq.Completed)
				}
				if st.Result != seq.Result {
					t.Errorf("K=%d: result %d, sequential %d", k, st.Result, seq.Result)
				}
				for name, pair := range map[string][2]int64{
					"goals":          {int64(st.Goals), int64(seq.Goals)},
					"goalsExecuted":  {st.GoalsExecuted, seq.GoalsExecuted},
					"respIntegrated": {st.RespIntegrated, seq.RespIntegrated},
					"jobsInjected":   {st.JobsInjected, seq.JobsInjected},
					"jobsDone":       {st.JobsDone, seq.JobsDone},
					"sojournN":       {int64(st.SteadySojourn.N()), int64(seq.SteadySojourn.N())},
				} {
					if pair[0] != pair[1] {
						t.Errorf("K=%d: %s = %d, sequential %d", k, name, pair[0], pair[1])
					}
				}
				var perPE int64
				for _, g := range st.GoalsPerPE {
					perPE += g
				}
				if perPE != st.GoalsExecuted {
					t.Errorf("K=%d: per-PE goal counts sum to %d, want %d", k, perPE, st.GoalsExecuted)
				}
				var busy sim.Time
				for _, b := range st.BusyPerPE {
					busy += b
				}
				if busy != st.TotalBusy {
					t.Errorf("K=%d: per-PE busy sums to %d, want %d", k, busy, st.TotalBusy)
				}
				if int64(len(st.JobRecords)) != st.JobsDone {
					t.Errorf("K=%d: %d job records for %d jobs", k, len(st.JobRecords), st.JobsDone)
				}
				for i := 1; i < len(st.JobRecords); i++ {
					if st.JobRecords[i].DoneAt < st.JobRecords[i-1].DoneAt {
						t.Errorf("K=%d: job records out of completion order at %d", k, i)
						break
					}
				}
			}
		})
	}
}

// shardBoom is the panic value of boomStrategy.
type shardBoom struct{ pe int }

// boomStrategy is spread until time 200, then panics on the first goal
// that arrives at a PE of shard 1 or later: a shard failing mid-run,
// mid-window, and usually on a runner goroutine rather than the
// coordinator's.
type boomStrategy struct{}

func (boomStrategy) Name() string                { return "boom" }
func (boomStrategy) NewNode(pe *PE) NodeStrategy { return boomNode{spreadNode{pe}} }

type boomNode struct{ spreadNode }

func (n boomNode) HandleEvent(ev Event) {
	if ev.Kind == GoalArrived && n.pe.m.shardID >= 1 && n.pe.Now() >= 200 {
		panic(shardBoom{n.pe.ID()})
	}
	n.spreadNode.HandleEvent(ev)
}

// TestShardRunnerPanicAndStop covers the window barrier's failure and
// stop paths: Run re-raises a shard's panic value instead of hanging at
// the barrier, and whether Run returns or panics, every runner
// goroutine it started exits.
func TestShardRunnerPanicAndStop(t *testing.T) {
	atLeastTwoProcs(t)
	// settled waits until the goroutine count falls back to base.
	settled := func(t *testing.T, base int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines still running after Run, %d before it", runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
	run := func(strat Strategy, shards int, serial bool) *Stats {
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.ShardSerial = serial
		src := NewFixedInterval(workload.NewFib(10), 120, 8)
		return NewStream(topology.NewGrid(5, 5), src, strat, cfg).Run()
	}
	for _, tc := range []struct {
		shards int
		serial bool
	}{{2, false}, {3, false}, {4, false}, {2, true}} {
		base := runtime.NumGoroutine()
		if st := run(spread{}, tc.shards, tc.serial); !st.Completed {
			t.Fatalf("K=%d serial=%v: run did not complete", tc.shards, tc.serial)
		}
		settled(t, base)
		func() {
			defer func() {
				if _, ok := recover().(shardBoom); !ok {
					t.Fatalf("K=%d serial=%v: Run did not re-raise the shard's panic", tc.shards, tc.serial)
				}
			}()
			run(boomStrategy{}, tc.shards, tc.serial)
		}()
		settled(t, base)
	}
}

// TestShardClampAndOvershard pins the clamp: more shards than PEs is
// the PEs-many-shards run, not a panic.
func TestShardClampAndOvershard(t *testing.T) {
	c := shardCase{topo: func() *topology.Topology { return topology.NewGrid(3, 3) }, strat: spread{}}
	big := shardFPOf(c.run(t, 64, false))
	exact := shardFPOf(c.run(t, 9, false))
	if !reflect.DeepEqual(big, exact) {
		t.Fatalf("Shards=64 on 9 PEs diverged from Shards=9")
	}
}

// TestShardRejectsSequentialOnly pins the SequentialOnly gate: a
// strategy declaring global state runs on one shard (Shards 0 and 1,
// where that shard owns every PE) and refuses several, with its reason
// in the panic.
func TestShardRejectsSequentialOnly(t *testing.T) {
	run := func(shards int) *Stats {
		cfg := DefaultConfig()
		cfg.Shards = shards
		return NewStream(topology.NewGrid(3, 3), NewSingleJob(workload.NewFib(5)), globalStrat{}, cfg).Run()
	}
	for _, shards := range []int{0, 1} {
		if st := run(shards); !st.Completed || st.Result != workload.FibValue(5) {
			t.Fatalf("Shards=%d: SequentialOnly run did not complete correctly: %+v", shards, st)
		}
	}
	for _, shards := range []int{2, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("Shards=%d: sharding a SequentialOnly strategy did not panic", shards)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "global-test reads everything") {
					t.Fatalf("Shards=%d: panic %v does not carry the strategy's reason", shards, r)
				}
			}()
			run(shards)
		}()
	}
}

type globalStrat struct{ spread }

func (globalStrat) Name() string           { return "global-test" }
func (globalStrat) SequentialOnly() string { return "global-test reads everything" }

// TestShardConfigRejections pins Validate's shard-count rejection.
func TestShardConfigRejections(t *testing.T) {
	cases := map[string]Config{}
	cfg := DefaultConfig()
	cfg.Shards = -1
	cases["negative"] = cfg
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("Shards with %s did not panic", name)
				}
			}()
			NewStream(topology.NewGrid(3, 3), NewSingleJob(workload.NewFib(5)), spread{}, cfg)
		})
	}
}

// TestInjSojournBucketsBounded derives InjSojournWindows from the
// run's JobRecords, which hold every completion when SojournBound is 0:
// bucket them by InjectedAt at the least power-of-two multiple of
// SampleInterval that leaves fewer than SeriesBound windows (every
// window when unbounded), drop the windows ending inside the warm-up,
// and each point must be its bucket's nearest-rank p99 at the bucket's
// end, bit for bit. It checks Shards 1, 2 and 4, where completions of
// one window land on several shards, and the bounded cases must thin.
func TestInjSojournBucketsBounded(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, c := range []struct {
			bound  int
			warmup sim.Time
		}{{0, 0}, {4, 0}, {4, 300}} {
			cfg := DefaultConfig()
			cfg.SampleInterval = 5
			cfg.SeriesBound = c.bound
			cfg.Warmup = c.warmup
			cfg.Shards = shards
			// The series exists only on scripted runs (it feeds recovery
			// analysis); a brief mid-run slowdown makes one.
			cfg.Scenario = scenario.MustParse("slow:pes=0:x=0.5@t=200,restore@t=400")
			src := NewFixedInterval(workload.NewFib(8), 40, 40)
			st := NewStream(topology.NewGrid(3, 3), src, spread{}, cfg).Run()
			if st.JobsDone != 40 || len(st.JobRecords) != 40 {
				t.Fatalf("K=%d %+v: %d jobs done, %d records, want 40", shards, c, st.JobsDone, len(st.JobRecords))
			}
			var last sim.Time
			for _, r := range st.JobRecords {
				last = max(last, r.InjectedAt)
			}
			stride := sim.Time(1)
			for c.bound > 0 && last/(cfg.SampleInterval*stride) >= sim.Time(c.bound) {
				stride *= 2
			}
			if c.bound > 0 && stride < 2 {
				t.Fatalf("K=%d %+v: stride 1 — the case does not thin", shards, c)
			}
			width := cfg.SampleInterval * stride
			buckets := map[sim.Time][]float64{}
			for _, r := range st.JobRecords {
				w := r.InjectedAt / width
				buckets[w] = append(buckets[w], float64(r.Sojourn()))
			}
			var want []float64
			for w := sim.Time(0); w <= last/width; w++ {
				xs, end := buckets[w], (w+1)*width
				if len(xs) == 0 || end <= c.warmup {
					continue
				}
				sort.Float64s(xs)
				want = append(want, float64(end), xs[int(math.Ceil(0.99*float64(len(xs))))-1])
			}
			var got []float64
			for _, p := range st.InjSojournWindows.Points {
				got = append(got, p.T, p.V)
			}
			if c.bound == 0 && len(got) <= 2*4 {
				t.Fatalf("K=%d: unbounded run has %d points — the case does not outgrow the bound", shards, len(got)/2)
			}
			if !reflect.DeepEqual(bitsOf(got), bitsOf(want)) {
				t.Errorf("K=%d %+v: InjSojournWindows (t, p99 pairs)\n got %v\nwant %v", shards, c, got, want)
			}
		}
	}
}

// bitsOf returns xs as float bits, so a comparison of two NaNs matches.
func bitsOf(xs []float64) []uint64 {
	b := make([]uint64, len(xs))
	for i, x := range xs {
		b[i] = math.Float64bits(x)
	}
	return b
}
