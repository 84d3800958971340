package cwnsim_test

// One benchmark per table and figure of the paper, at reduced scale so
// `go test -bench=.` completes in minutes; the full-scale regeneration
// is `go run ./cmd/paper`. Beyond wall-clock time, each benchmark
// reports the achieved simulation quality as custom metrics
// (speedup, util%), so the design-choice ablations — CWN's
// local-minimum rule, GM's export policy, the load metric — can be read
// straight from benchmark output.

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"cwnsim/internal/experiments"
)

// benchSpecs executes specs once per iteration and reports the mean
// speedup and utilization of the batch as custom metrics.
func benchSpecs(b *testing.B, specs []experiments.RunSpec) {
	b.Helper()
	var speedup, util float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.RunAll(specs, 0)
		if err != nil {
			b.Fatal(err)
		}
		speedup, util = 0, 0
		for _, r := range results {
			speedup += r.Speedup()
			util += r.UtilizationPercent()
		}
		speedup /= float64(len(results))
		util /= float64(len(results))
	}
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(util, "util%")
}

// BenchmarkScale runs the memory-scale specs and reports each run's
// OS-backed heap (HeapSys - HeapReleased) as peak-heap-MiB. The two
// million-PE cases fail at 2 GiB: the arena + struct-of-arrays layout
// and implicit topologies exist to keep a 10^6-PE machine, with or
// without the sharded fault stack, inside that budget. Each case
// starts by collecting the garbage and returning the freed heap to the
// operating system, so its reading is its own heap, not one an earlier
// case left behind; add -memprofile to see where its bytes go.
func BenchmarkScale(b *testing.B) {
	const peakBudget = 2 << 30
	for _, c := range []struct {
		name  string
		gated bool
		spec  experiments.RunSpec
	}{
		{
			// One million PEs on an implicit torus (the form every spec
			// torus builds in) under a sustained Poisson stream over a
			// short horizon; the per-PE load tickers sweeping the
			// struct-of-arrays hot state dominate.
			name: "poisson-torus1000", gated: true,
			spec: experiments.RunSpec{
				Topo:     experiments.Torus(1000),
				Workload: experiments.Fib(9),
				Strategy: experiments.CWN(9, 2),
				Arrival:  experiments.PoissonArrivals(20, 15),
				Warmup:   100,
				MaxTime:  300,
			},
		},
		{
			// The same machine with the full fault stack live under
			// Shards=4: block-domain crash strikes (250x250 blocks, sized
			// to land on the active region around the root PE), periodic
			// checkpoint ticks and a bounded retry budget, with the seed
			// pinned to a timeline that completes, aborts, retries from
			// checkpoints and abandons jobs. Fault bookkeeping and the
			// sentinel-broadcast storm a 62,500-PE crash sets off must
			// not break the memory budget.
			name: "chaos-torus1000-sharded-soak", gated: true,
			spec: experiments.RunSpec{
				Topo:         experiments.Torus(1000),
				Workload:     experiments.Fib(9),
				Strategy:     experiments.StrategySpec{Kind: "cwn", Radius: 9, Horizon: 2, FailureAware: true},
				Arrival:      experiments.PoissonArrivals(20, 25),
				Warmup:       100,
				MaxTime:      600,
				Scenario:     "chaos:mtbf=60:mttr=40:crash:domain=block:250x250@seed=7,checkpoint:every=50:cost=1@t=0",
				RetryLimit:   2,
				RetryBackoff: 20,
				Shards:       4,
			},
		},
		{
			// The long-horizon soak: 10k PEs under chaos fail/recover
			// cycles for 60k virtual units — enough recycle generations
			// that an arena slot handed out twice, a stale SoA index or
			// a leaked free-list entry surfaces as a failed or drifting
			// run rather than hiding inside a short one.
			name: "chaos-torus100-soak",
			spec: experiments.RunSpec{
				Topo:     experiments.Torus(100),
				Workload: experiments.Fib(9),
				Strategy: experiments.StrategySpec{Kind: "cwn", Radius: 5, Horizon: 2, FailureAware: true},
				Arrival:  experiments.PoissonArrivals(40, 1_200),
				Warmup:   2_000,
				MaxTime:  60_000,
				Scenario: "chaos:mtbf=6000:mttr=1500@seed=7",
			},
		},
	} {
		b.Run(c.name, func(b *testing.B) {
			runtime.GC()
			debug.FreeOSMemory()
			c.spec.Topo.Build()
			c.spec.Workload.Build()
			b.ReportAllocs()
			b.ResetTimer()
			var peak uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				if _, err := c.spec.ExecuteErr(); err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				peak = max(peak, ms.HeapSys-ms.HeapReleased)
			}
			mib := float64(peak) / (1 << 20)
			b.ReportMetric(mib, "peak-heap-MiB")
			if c.gated && peak >= peakBudget {
				b.Fatalf("peak heap %.1f MiB — a million-PE machine must fit in 2 GiB", mib)
			}
		})
	}
}

// BenchmarkLoadPathScale times the simulator per event as the machine
// grows: CWN(5,2) under a Poisson stream of fib(9) jobs on one-shard
// implicit tori of 1,024 to 65,536 PEs. The arrival rate grows with the
// machine (mean gap 40·4096/P) and the horizon shrinks with it
// (15,000·4096/P), so every size fires about 16M events, most of them
// load ticks and load-word deliveries: a rise in ns/event with P is
// the cost of a larger working set, not of more work. Construction is
// included; it is a few percent of a run.
func BenchmarkLoadPathScale(b *testing.B) {
	for _, side := range []int{32, 64, 128, 256} {
		p := side * side
		spec := experiments.RunSpec{
			Topo:     experiments.Torus(side),
			Workload: experiments.Fib(9),
			Strategy: experiments.CWN(5, 2),
			Arrival:  experiments.PoissonArrivals(40*4096/float64(p), 1<<30),
			MaxTime:  int64(15_000 * 4096 / p),
		}
		b.Run(fmt.Sprintf("torus%d", p), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				r, err := spec.ExecuteErr()
				if err != nil {
					b.Fatal(err)
				}
				events += r.Events
			}
			b.ReportMetric(float64(events)/float64(b.N), "events")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}

// BenchmarkTable1Optimization regenerates a slice of the Table 1
// parameter-optimization process: a CWN radius/horizon sweep at one
// sample point.
func BenchmarkTable1Optimization(b *testing.B) {
	var specs []experiments.RunSpec
	for _, radius := range []int{3, 5, 9} {
		for _, horizon := range []int{1, 2} {
			specs = append(specs, experiments.RunSpec{
				Topo:     experiments.Grid(8),
				Workload: experiments.Fib(11),
				Strategy: experiments.CWN(radius, horizon),
			})
		}
	}
	benchSpecs(b, specs)
}

// BenchmarkTable2SpeedupCell regenerates one cell pair of Table 2:
// CWN and GM on the 10x10 grid with fib(13).
func BenchmarkTable2SpeedupCell(b *testing.B) {
	ts := experiments.Grid(10)
	benchSpecs(b, []experiments.RunSpec{
		{Topo: ts, Workload: experiments.Fib(13), Strategy: experiments.PaperCWNFor(ts)},
		{Topo: ts, Workload: experiments.Fib(13), Strategy: experiments.PaperGMFor(ts)},
	})
}

// BenchmarkTable2SpeedupQuickSuite regenerates the whole comparison at
// quick scale: 96 runs over machines up to 100 PEs.
func BenchmarkTable2SpeedupQuickSuite(b *testing.B) {
	benchSpecs(b, experiments.SpeedupSuite(true))
}

// BenchmarkTable3HopDistribution regenerates the message-distance
// histogram runs.
func BenchmarkTable3HopDistribution(b *testing.B) {
	benchSpecs(b, experiments.HopDistributionSpecs(1, true))
}

// BenchmarkPlot1DLMDCCurve regenerates Plot 1's family member on the
// 10x10 double-lattice-mesh: dc utilization-vs-size curve (both
// strategies, quick sizes).
func BenchmarkPlot1DLMDCCurve(b *testing.B) {
	benchSpecs(b, experiments.UtilizationCurveSpecs(experiments.DLM(10, 5), "dc", true))
}

// BenchmarkPlot7GridDCCurve regenerates Plot 7: dc on the 10x10 grid.
func BenchmarkPlot7GridDCCurve(b *testing.B) {
	benchSpecs(b, experiments.UtilizationCurveSpecs(experiments.Grid(10), "dc", true))
}

// BenchmarkPlotsFibCurve regenerates the fib analogue the paper omits
// for space ("the Fibonacci plots are very similar").
func BenchmarkPlotsFibCurve(b *testing.B) {
	benchSpecs(b, experiments.UtilizationCurveSpecs(experiments.Grid(8), "fib", true))
}

// BenchmarkPlot11TimeSeriesDLM regenerates Plot 11-13 style runs:
// utilization sampled over time on the 10x10 DLM.
func BenchmarkPlot11TimeSeriesDLM(b *testing.B) {
	benchSpecs(b, experiments.TimeSeriesSpecs(experiments.DLM(10, 5), experiments.Fib(13), 50))
}

// BenchmarkPlot14TimeSeriesGrid regenerates Plot 14-16 style runs on
// the 10x10 grid.
func BenchmarkPlot14TimeSeriesGrid(b *testing.B) {
	benchSpecs(b, experiments.TimeSeriesSpecs(experiments.Grid(10), experiments.Fib(13), 50))
}

// BenchmarkAppendixHypercube regenerates an appendix curve: fib on the
// dimension-5 hypercube.
func BenchmarkAppendixHypercube(b *testing.B) {
	benchSpecs(b, experiments.UtilizationCurveSpecs(experiments.Hypercube(5), "fib", true))
}

// BenchmarkAblationExtensions measures the future-work extension suite
// (ACWN variants vs CWN vs baselines).
func BenchmarkAblationExtensions(b *testing.B) {
	benchSpecs(b, experiments.AblationSpecs(true))
}

// BenchmarkCommRatioSweep measures the communication-ratio caveat sweep.
func BenchmarkCommRatioSweep(b *testing.B) {
	benchSpecs(b, experiments.CommRatioSpecs(true))
}

// BenchmarkCWNMinimumRule isolates the local-minimum acceptance rule
// (core.CWN.StrictMinimum): the paper's text reads strict-<, its data
// implies <=. Compare achieved speedup via the custom metric;
// TestCWNStrictVariantWalksFarther (internal/core) pins the hop gap.
func BenchmarkCWNMinimumRule(b *testing.B) {
	base := experiments.RunSpec{Topo: experiments.Grid(10), Workload: experiments.Fib(13)}
	b.Run("nonstrict", func(b *testing.B) {
		s := base
		s.Strategy = experiments.CWN(9, 2)
		benchSpecs(b, []experiments.RunSpec{s})
	})
	b.Run("strict", func(b *testing.B) {
		s := base
		s.Strategy = experiments.CWN(9, 2)
		s.Strategy.Strict = true
		benchSpecs(b, []experiments.RunSpec{s})
	})
}

// BenchmarkGMExportPolicy isolates the Gradient Model's export-selection
// policy (core.Gradient.ExportNewest): exporting the queue front
// (oldest, biggest subtree) versus the newest goal;
// TestGMExportNewestVariant (internal/core) pins that the front wins.
func BenchmarkGMExportPolicy(b *testing.B) {
	b.Run("oldest", func(b *testing.B) {
		benchSpecs(b, []experiments.RunSpec{{
			Topo: experiments.Grid(10), Workload: experiments.Fib(13),
			Strategy: experiments.GM(1, 2, 20),
		}})
	})
	b.Run("newest", func(b *testing.B) {
		benchSpecs(b, []experiments.RunSpec{{
			Topo: experiments.Grid(10), Workload: experiments.Fib(13),
			Strategy: experiments.StrategySpec{Kind: "gm", Low: 1, High: 2, Interval: 20, ExportNewest: true},
		}})
	})
}

// BenchmarkLoadMetric isolates the commitment-aware load refinement.
func BenchmarkLoadMetric(b *testing.B) {
	base := experiments.RunSpec{Topo: experiments.Grid(10), Workload: experiments.Fib(13), Strategy: experiments.CWN(9, 2)}
	b.Run("queue", func(b *testing.B) { benchSpecs(b, []experiments.RunSpec{base}) })
	b.Run("queue+pending", func(b *testing.B) {
		s := base
		s.LoadMetric = "queue+pending"
		benchSpecs(b, []experiments.RunSpec{s})
	})
}

// BenchmarkDiameterStudy regenerates the extension study of the paper's
// closing conjecture (CWN's edge vs network diameter).
func BenchmarkDiameterStudy(b *testing.B) {
	benchSpecs(b, experiments.DiameterStudySpecs(true))
}

// BenchmarkImbalanceSweep regenerates the tree-skew extension study.
func BenchmarkImbalanceSweep(b *testing.B) {
	benchSpecs(b, experiments.ImbalanceSpecs(true))
}

// BenchmarkMonitorOverhead measures the cost of ORACLE's per-PE load
// monitor against the same run without it.
func BenchmarkMonitorOverhead(b *testing.B) {
	base := experiments.RunSpec{Topo: experiments.Grid(10), Workload: experiments.Fib(13), Strategy: experiments.CWN(9, 2)}
	b.Run("off", func(b *testing.B) { benchSpecs(b, []experiments.RunSpec{base}) })
	b.Run("on", func(b *testing.B) {
		s := base
		s.SampleInterval = 50
		s.MonitorPE = true
		benchSpecs(b, []experiments.RunSpec{s})
	})
}

// BenchmarkStrategyZoo compares every strategy in the library on one
// configuration; the speedup metric column is the interesting output.
func BenchmarkStrategyZoo(b *testing.B) {
	for _, ss := range []experiments.StrategySpec{
		experiments.CWN(9, 2),
		experiments.GM(1, 2, 20),
		experiments.ACWN(9, 2, 3, 40),
		{Kind: "diffusion", Interval: 20},
		{Kind: "worksteal", Interval: 20, Threshold: 1},
		{Kind: "randomwalk", Steps: 3},
		{Kind: "roundrobin"},
		{Kind: "ideal"},
		{Kind: "local"},
	} {
		ss := ss
		b.Run(ss.Label(), func(b *testing.B) {
			benchSpecs(b, []experiments.RunSpec{{
				Topo: experiments.Grid(10), Workload: experiments.Fib(13), Strategy: ss,
			}})
		})
	}
}
