package main

import (
	"fmt"

	"cwnsim/internal/experiments"
)

// benchWorkload is one named set of inputs the benchmark runs. The specs
// are literals here, not references to experiments.BenchMatrix or the
// paper helpers, so an edit to internal/experiments cannot change what
// is measured.
type benchWorkload struct {
	name string
	why  string
	// passes is the suggested number of cold passes per set.
	passes int
	// sweep marks a workload whose specs run through experiments.RunAll;
	// its set-up time is a separate construction-only pass.
	sweep bool
	specs func(seed int64) []experiments.RunSpec
}

// defaultSeed is a seed at which fault-shard aborts, retries and
// abandons jobs, so the pinned digests cover every retry outcome.
const defaultSeed = 1

// sweepWorkers is the RunAll worker count of paper-sweep. No pass uses
// more threads than this.
const sweepWorkers = 2

var workloads = []benchWorkload{
	{
		name:   "paper-sweep",
		why:    "the 240-run Table 2 suite users regenerate; construction, machine.Pool reuse and RunAll scheduling outweigh the engine's steady state",
		passes: 15,
		sweep:  true,
		specs:  paperSweep,
	},
	{
		name:   "stream-cwn",
		why:    "steady-state goal path (engine, goal and response handlers, the CWN walk, sojourn records) with negligible set-up and no control traffic",
		passes: 20,
		specs: func(seed int64) []experiments.RunSpec {
			return []experiments.RunSpec{{
				Topo:     experiments.TopoSpec{Kind: "grid", Rows: 8, Cols: 8},
				Workload: experiments.WorkloadSpec{Kind: "fib", M: 9},
				Strategy: experiments.StrategySpec{Kind: "cwn", Radius: 9, Horizon: 2},
				Arrival:  experiments.ArrivalSpec{Kind: "poisson", Mean: 60, Jobs: openStream},
				Warmup:   3000,
				MaxTime:  120_000,
				Seed:     seed,
			}}
		},
	},
	{
		name:   "ctrl-gm",
		why:    "1024 load tickers and gradient processes: timer re-arms and control messages on the machine layer, so a goal-path gain that taxes timers shows",
		passes: 15,
		specs: func(seed int64) []experiments.RunSpec {
			return []experiments.RunSpec{{
				Topo:     experiments.TopoSpec{Kind: "grid", Rows: 32, Cols: 32},
				Workload: experiments.WorkloadSpec{Kind: "fib", M: 9},
				Strategy: experiments.StrategySpec{Kind: "gm", Low: 1, High: 2, Interval: 20},
				Arrival:  experiments.ArrivalSpec{Kind: "poisson", Mean: 30, Jobs: 400},
				Warmup:   2000,
				// GM is still draining the backlog at 40000 on every seed.
				MaxTime: 40_000,
				Seed:    seed,
			}}
		},
	},
	{
		name:   "fault-shard",
		why:    "the only workload with scenario expansion, crash/checkpoint/retry, the shard window protocol and the lazily built all-pairs routing",
		passes: 8,
		specs: func(seed int64) []experiments.RunSpec {
			return []experiments.RunSpec{faultShardSpec(seed)}
		},
	},
}

// openStream is a job count no run reaches: arrivals go on until the
// MaxTime horizon ends the run. Every stream workload ends at its
// horizon, which fixes the load tickers' work, the bulk of a run; a run
// that waited for its last job would grow or shrink with the seed.
const openStream = 1 << 30

// faultSide is the side of fault-shard's materialized torus. Its routing
// tables cost 8·side⁴ bytes, built on the first Dist call.
const faultSide = 64

// faultShards is fault-shard's shard count.
const faultShards = 2

// faultScript is fault-shard's scenario: correlated crashes of 32×32
// blocks (four failure domains), checkpoints every 300 time units.
func faultScript(seed int64) string {
	return fmt.Sprintf("chaos:mtbf=1500:mttr=400:crash:domain=block:32x32@seed=%d,checkpoint:every=300:cost=1@t=0", seed)
}

func faultShardSpec(seed int64) experiments.RunSpec {
	return experiments.RunSpec{
		Topo:         experiments.TopoSpec{Kind: "torus", Rows: faultSide, Cols: faultSide},
		Workload:     experiments.WorkloadSpec{Kind: "fib", M: 9},
		Strategy:     experiments.StrategySpec{Kind: "cwn", Radius: 5, Horizon: 2, FailureAware: true},
		Arrival:      experiments.ArrivalSpec{Kind: "poisson", Mean: 40, Jobs: openStream},
		MaxTime:      15_000,
		Scenario:     faultScript(seed),
		RetryLimit:   2,
		RetryBackoff: 20,
		Shards:       faultShards,
		Seed:         seed,
	}
}

// paperSweep is the Table 2 comparison: dc and fib at the paper's six
// sizes, on the five grids and five double-lattice meshes, under the
// paper's CWN and GM parameters — 240 closed runs.
func paperSweep(seed int64) []experiments.RunSpec {
	var topos []experiments.TopoSpec
	for _, side := range []int{5, 8, 10, 16, 20} {
		topos = append(topos, experiments.TopoSpec{Kind: "grid", Rows: side, Cols: side})
	}
	for _, d := range [][2]int{{5, 5}, {8, 4}, {10, 5}, {16, 4}, {20, 5}} {
		topos = append(topos, experiments.TopoSpec{Kind: "dlm", Rows: d[0], Cols: d[0], Span: d[1]})
	}
	programs := []struct {
		kind  string
		sizes []int
	}{
		{"dc", []int{21, 55, 144, 377, 987, 4181}},
		{"fib", []int{7, 9, 11, 13, 15, 18}},
	}
	var specs []experiments.RunSpec
	for _, p := range programs {
		for _, size := range p.sizes {
			wl := experiments.WorkloadSpec{Kind: "fib", M: size}
			if p.kind == "dc" {
				wl = experiments.WorkloadSpec{Kind: "dc", M: 1, N: size}
			}
			for _, ts := range topos {
				cwn := experiments.StrategySpec{Kind: "cwn", Radius: 9, Horizon: 2}
				gm := experiments.StrategySpec{Kind: "gm", Low: 1, High: 2, Interval: 20}
				if ts.Kind == "dlm" {
					cwn = experiments.StrategySpec{Kind: "cwn", Radius: 5, Horizon: 1}
					gm = experiments.StrategySpec{Kind: "gm", Low: 1, High: 1, Interval: 20}
				}
				specs = append(specs,
					experiments.RunSpec{Topo: ts, Workload: wl, Strategy: cwn, Seed: seed},
					experiments.RunSpec{Topo: ts, Workload: wl, Strategy: gm, Seed: seed})
			}
		}
	}
	return specs
}

// lookupWorkload returns the named workload.
func lookupWorkload(name string) (benchWorkload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return benchWorkload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
