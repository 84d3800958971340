package machine

import (
	"reflect"
	"slices"
	"testing"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// faultCase is one scripted-failure cell of the sharded-scenario
// cross-check matrix: blackouts, correlated crash chaos, checkpointed
// crash chaos, with bounded retries where state is lost, and link
// outages on shard-boundary channels, under a strategy that reads the
// neighbor views (spread) and one that is LoadBlind (rotate).
type faultCase struct {
	name   string
	script string
	limit  int
	backof sim.Time
	strat  Strategy
}

// linkOutageScript drops, degrades and restores three vertical links of
// the 6×6 torus — 14-20 between rows 2 and 3, and the wraparound links
// 1-31 and 2-32 — each of which crosses the shard boundaries at K=2
// and K=4 (checked by TestShardScenarioParallelMatchesSerial). Load
// words sent on a downed link wait in its held list and, when the link
// comes back, flush into the other shard's outbox at the op barrier.
// 2-32 also comes back through a degrade rather than a restore.
const linkOutageScript = "droplink:a=14:b=20@t=300,degradelink:a=1:b=31:x=3@t=500,droplink:a=2:b=32@t=700," +
	"restorelink:a=14:b=20@t=1500,degradelink:a=2:b=32:x=2@t=1900,restorelink:a=1:b=31@t=2600,restorelink:a=2:b=32@t=3200"

func faultCases() []faultCase {
	return []faultCase{
		{"blackout", "fail:pes=25%@t=400,recover@t=1100", 0, 0, spread{}},
		{"crash-domains", "chaos:mtbf=700:mttr=350:until=6000:crash:domain=rack:4@seed=7", 3, 40, spread{}},
		{"crash-ckpt", "chaos:mtbf=800:mttr=400:until=6000:crash:domain=block:2x2@seed=11,checkpoint:every=1500:cost=2@t=0", 2, 60, spread{}},
		{"link-outage", linkOutageScript, 0, 0, spread{}},
		// The words held at the downed links are tallied, not
		// delivered, when they flush into the other shard's outbox.
		{"link-outage-blind", linkOutageScript, 0, 0, rotate{}},
		// Every PE-0 export lands on one PE, and none of the 40 jobs
		// completes by MaxTime: the sojourn statistics are NaN.
		{"link-outage-saturated", linkOutageScript, 0, 0, pushRight{}},
	}
}

func (c faultCase) run(t *testing.T, topo *topology.Topology, shards int, serial bool) *Stats {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.ShardSerial = serial
	cfg.MaxTime = 40000
	cfg.SampleInterval = 500
	cfg.RetryLimit = c.limit
	cfg.RetryBackoff = c.backof
	cfg.Scenario = scenario.MustParse(c.script)
	src := NewFixedInterval(workload.NewFib(9), 130, 40)
	return NewStream(topo, src, c.strat, cfg).Run()
}

// TestShardScenarioOneBitForBitSequential extends the Shards 0 ≡ 1
// contract to scripted-failure runs: blackouts, correlated crashes,
// checkpoints, bounded retries and link outages run identically whether
// the one shard was requested explicitly or by default.
func TestShardScenarioOneBitForBitSequential(t *testing.T) {
	for _, c := range faultCases() {
		t.Run(c.name, func(t *testing.T) {
			zero := shardFPOf(c.run(t, topology.NewTorus(6, 6), 0, false))
			one := shardFPOf(c.run(t, topology.NewTorus(6, 6), 1, false))
			if !reflect.DeepEqual(zero, one) {
				t.Fatalf("Shards=1 diverged from Shards=0:\nzero: %+v\none:  %+v", zero.fingerprint, one.fingerprint)
			}
		})
	}
}

// TestShardScenarioParallelMatchesSerial pins the determinism claim for
// scripted failures under real parallelism: a K-shard chaos run on
// several runner goroutines must equal its single-goroutine
// window-by-window replay bit for bit — barrier-applied scenario ops,
// eager checkpoint snapshots, purges, retries and held load words
// flushing across shards included.
//
// Every channel a cell's link ops touch must cross a shard boundary at
// its K, checked against the partition, so those cells hold load words
// bound for another shard.
func TestShardScenarioParallelMatchesSerial(t *testing.T) {
	atLeastTwoProcs(t)
	for _, c := range faultCases() {
		for _, k := range []int{2, 4} {
			t.Run(c.name, func(t *testing.T) {
				topo := topology.NewTorus(6, 6)
				cross := topo.Partition(k).Cross
				for _, ev := range scenario.MustParse(c.script).Events {
					if ev.Kind != scenario.DegradeLink && ev.Kind != scenario.RestoreLink {
						continue
					}
					for _, ci := range topo.AppendChannelsBetween(nil, ev.A, ev.B) {
						if !slices.Contains(cross, ci) {
							t.Fatalf("K=%d: %s on channel %d (%d-%d), which does not cross a shard boundary", k, ev.Kind, ci, ev.A, ev.B)
						}
					}
				}
				par := shardFPOf(c.run(t, topology.NewTorus(6, 6), k, false))
				ser := shardFPOf(c.run(t, topology.NewTorus(6, 6), k, true))
				if !reflect.DeepEqual(par, ser) {
					t.Fatalf("K=%d parallel diverged from serial replay:\npar: %+v\nser: %+v", k, par.fingerprint, ser.fingerprint)
				}
			})
		}
	}
}

// TestDomainChaosAcrossTopologies drives domain-correlated crash chaos
// across topology kinds × shard counts: every combination must drain or
// hit MaxTime without panicking, conserve the abort accounting, and
// stay deterministic per seed.
func TestDomainChaosAcrossTopologies(t *testing.T) {
	topos := map[string]func() *topology.Topology{
		"grid6x6":  func() *topology.Topology { return topology.NewGrid(6, 6) },
		"torus6x6": func() *topology.Topology { return topology.NewTorus(6, 6) },
		"ring24":   func() *topology.Topology { return topology.NewRing(24) },
	}
	c := faultCase{script: "chaos:mtbf=600:mttr=300:until=5000:crash:domain=rack:4@seed=13", limit: 2, backof: 30, strat: spread{}}
	for name, mk := range topos {
		for _, k := range []int{1, 2, 4} {
			t.Run(name, func(t *testing.T) {
				st := c.run(t, mk(), k, false)
				if st.JobsAborted == 0 {
					t.Fatalf("K=%d: domain chaos aborted nothing — spec too tame to test", k)
				}
				if st.JobsRetried+st.JobsAbandoned != st.JobsAborted {
					t.Fatalf("K=%d: retried %d + abandoned %d != aborted %d",
						k, st.JobsRetried, st.JobsAbandoned, st.JobsAborted)
				}
				if st.JobsDone+st.JobsAbandoned > st.JobsInjected {
					t.Fatalf("K=%d: done %d + abandoned %d exceeds injected %d",
						k, st.JobsDone, st.JobsAbandoned, st.JobsInjected)
				}
				again := c.run(t, mk(), k, false)
				if fp(st) != fp(again) {
					t.Fatalf("K=%d: domain chaos run not deterministic", k)
				}
			})
		}
	}
}

// TestRetryLimitInvariants pins the bounded-retry accounting contract
// on a crash-heavy spec, on one shard and on four: with RetryLimit set
// some jobs run out of retries (JobsAbandoned > 0), every abort is
// either retried or abandoned, abandoned jobs never complete, and
// goodput reads completed over injected.
func TestRetryLimitInvariants(t *testing.T) {
	run := func(shards int) *Stats {
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.MaxTime = 40000
		cfg.SampleInterval = 500
		cfg.RetryLimit = 1
		cfg.RetryBackoff = 50
		cfg.Scenario = scenario.MustParse("chaos:mtbf=400:mttr=300:until=20000:crash:domain=rack:8@seed=21")
		return NewStream(topology.NewTorus(8, 8), NewFixedInterval(workload.NewFib(10), 150, 60), spread{}, cfg).Run()
	}
	for _, shards := range []int{0, 4} {
		st := run(shards)
		if st.JobsAbandoned == 0 {
			t.Fatalf("Shards=%d: RetryLimit=1 under heavy crash chaos abandoned nothing", shards)
		}
		if st.JobsRetried+st.JobsAbandoned != st.JobsAborted {
			t.Fatalf("Shards=%d: retried %d + abandoned %d != aborted %d",
				shards, st.JobsRetried, st.JobsAbandoned, st.JobsAborted)
		}
		if st.JobsDone+st.JobsAbandoned > st.JobsInjected {
			t.Fatalf("Shards=%d: done %d + abandoned %d exceeds injected %d",
				shards, st.JobsDone, st.JobsAbandoned, st.JobsInjected)
		}
		if want := float64(st.JobsDone) / float64(st.JobsInjected); st.Goodput() != want {
			t.Fatalf("Shards=%d: Goodput() = %v, want %v", shards, st.Goodput(), want)
		}
	}
	unlimited := func() *Stats {
		cfg := DefaultConfig()
		cfg.MaxTime = 40000
		cfg.Scenario = scenario.MustParse("chaos:mtbf=400:mttr=300:until=20000:crash:domain=rack:8@seed=21")
		return NewStream(topology.NewTorus(8, 8), NewFixedInterval(workload.NewFib(10), 150, 60), spread{}, cfg).Run()
	}()
	if unlimited.JobsAbandoned != 0 {
		t.Fatalf("RetryLimit=0 abandoned %d jobs — retries must be unconditional", unlimited.JobsAbandoned)
	}
	if unlimited.JobsRetried != unlimited.JobsAborted {
		t.Fatalf("RetryLimit=0: retried %d != aborted %d", unlimited.JobsRetried, unlimited.JobsAborted)
	}
}

// TestCheckpointResumeSpeedsRecovery pins that checkpoint/restart does
// what it claims: on a run that crashes the working PE mid-job, free
// periodic snapshots let the retry replay the checkpointed prefix at
// unit cost, finishing strictly earlier than the same crash without
// checkpoints. The overhead side is pinned too: with a scripted cost
// and no crash, ticks strictly lengthen the run.
func TestCheckpointResumeSpeedsRecovery(t *testing.T) {
	run := func(script string) *Stats {
		cfg := DefaultConfig()
		cfg.MaxTime = 200000
		if script != "" {
			cfg.Scenario = scenario.MustParse(script)
		}
		return New(topology.NewGrid(1, 2), workload.NewFib(13), keepLocal{}, cfg).Run()
	}
	const crash = "crash:pes=0@t=3000,recover@t=9000"
	plain := run(crash)
	ckpt := run(crash + ",checkpoint:every=500:cost=0@t=0")
	if !plain.Completed || !ckpt.Completed {
		t.Fatalf("runs did not complete: plain=%v ckpt=%v", plain.Completed, ckpt.Completed)
	}
	if want := workload.FibValue(13); plain.Result != want || ckpt.Result != want {
		t.Fatalf("results wrong: plain=%d ckpt=%d want %d", plain.Result, ckpt.Result, want)
	}
	if ckpt.Makespan >= plain.Makespan {
		t.Fatalf("checkpointed retry not faster: makespan %d vs %d without checkpoints",
			ckpt.Makespan, plain.Makespan)
	}

	free := run("checkpoint:every=500:cost=0@t=0")
	costly := run("checkpoint:every=500:cost=20@t=0")
	if costly.Makespan <= free.Makespan {
		t.Fatalf("checkpoint cost invisible: makespan %d with cost vs %d free",
			costly.Makespan, free.Makespan)
	}
}

// TestShardRecoveryMetricsMatchSequential is the acceptance pin for the
// sharded recovery observables: on a placement-localized spec (keepLocal
// keeps every goal on the home shard, whose engine carries the plain
// seed) a K=4 run must reproduce the one-shard recovery metrics exactly
// — the windowed sojourn p99 series behind time-to-steady, the
// injection-keyed series, and the crash accounting.
func TestShardRecoveryMetricsMatchSequential(t *testing.T) {
	scripts := map[string]string{
		"blackout":   "fail:pes=0@t=1000,recover@t=3000",
		"crash-ckpt": "crash:pes=0@t=1000,recover@t=3000,crash:pes=0@t=6000,recover@t=8000,checkpoint:every=800:cost=1@t=0",
	}
	run := func(script string, shards int) *Stats {
		cfg := DefaultConfig()
		cfg.Shards = shards
		cfg.MaxTime = 30000
		cfg.SampleInterval = 400
		cfg.RetryLimit = 5
		cfg.RetryBackoff = 25
		cfg.Scenario = scenario.MustParse(script)
		// keepLocal serves every goal on the home PE: size the load so
		// one PE sustains it (fib(5) ≈ 190 units per job, one every 250)
		// or the queue outgrows the horizon instead of recovering.
		return NewStream(topology.NewGrid(4, 4), NewFixedInterval(workload.NewFib(5), 250, 40), keepLocal{}, cfg).Run()
	}
	for name, script := range scripts {
		t.Run(name, func(t *testing.T) {
			seq := run(script, 0)
			shd := run(script, 4)
			if seq.JobsDone != shd.JobsDone || seq.Makespan != shd.Makespan {
				t.Fatalf("outcome diverged: done %d/%d makespan %d/%d",
					seq.JobsDone, shd.JobsDone, seq.Makespan, shd.Makespan)
			}
			if seq.JobsAborted != shd.JobsAborted || seq.JobsRetried != shd.JobsRetried || seq.JobsAbandoned != shd.JobsAbandoned {
				t.Fatalf("crash accounting diverged: aborted %d/%d retried %d/%d abandoned %d/%d",
					seq.JobsAborted, shd.JobsAborted, seq.JobsRetried, shd.JobsRetried, seq.JobsAbandoned, shd.JobsAbandoned)
			}
			if !reflect.DeepEqual(seq.SojournWindows.Points, shd.SojournWindows.Points) {
				t.Fatalf("windowed sojourn p99 series diverged:\nseq: %v\nshd: %v",
					seq.SojournWindows.Points, shd.SojournWindows.Points)
			}
			if !reflect.DeepEqual(seq.InjSojournWindows.Points, shd.InjSojournWindows.Points) {
				t.Fatalf("injection-keyed sojourn series diverged:\nseq: %v\nshd: %v",
					seq.InjSojournWindows.Points, shd.InjSojournWindows.Points)
			}
			if seq.SojournWindows.Len() == 0 {
				t.Fatal("no windowed sojourn points — the spec exercises nothing")
			}
		})
	}
}
