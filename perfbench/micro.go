package main

import (
	"runtime"
	"sort"
	"time"

	"cwnsim/internal/core"
	"cwnsim/internal/machine"
	"cwnsim/internal/metrics"
	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// microReps is how many times each microbenchmark repeats; it reports
// the median.
const microReps = 21

// microbenchmarks times calls into each layer's public functions.
func microbenchmarks() (map[string]float64, error) {
	out := map[string]float64{}
	rep := func(name string, fn func() float64) {
		xs := make([]float64, microReps)
		for i := range xs {
			xs[i] = fn()
		}
		sort.Float64s(xs)
		out[name] = median(xs)
	}

	// sim: a standing population of 1024 events, then one push and one
	// Step per operation — inside the 2048-slot wheel, or far enough
	// ahead to land in the overflow heap first.
	rep("sim.push_pop_ns", func() float64 { return pushPop(1, 2000) })
	rep("sim.overflow_push_pop_ns", func() float64 { return pushPop(4096, 4096) })
	rep("sim.timer_rearm_ns", timerRearm)

	// machine and core, on the 100×100 torus.
	torus := topology.NewTorus(100, 100)
	fib9 := workload.NewFib(9)
	var m *machine.Machine
	var allocs []float64
	rep("machine.new_ns_per_pe", func() float64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		m = machine.NewStream(torus, machine.NewPoisson(fib9, 40, 300), core.NewCWN(5, 2), machine.DefaultConfig())
		ns := float64(time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(torus.Size()))
		return ns / float64(torus.Size())
	})
	sort.Float64s(allocs)
	out["machine.new_allocs_per_pe"] = median(allocs)
	cwn := core.NewCWN(5, 2)
	rep("core.newnode_ns", func() float64 {
		return nsPer(torus.Size(), func(i int) { cwn.NewNode(m.PE(i)) })
	})

	// topology.
	rep("topology.build_ms_torus100", func() float64 {
		return msOf(func() { topology.NewTorus(100, 100) })
	})
	rep("topology.build_ms_torus1000_implicit", func() float64 {
		return msOf(func() { topology.NewTorusImplicit(1000, 1000) })
	})
	// The first Dist call on fault-shard's torus builds its routing.
	var routingMiB []float64
	rep("topology.routing_first_s", func() float64 {
		t := topology.NewTorus(faultSide, faultSide)
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		t.Dist(0, 0)
		s := time.Since(start).Seconds()
		runtime.ReadMemStats(&m1)
		routingMiB = append(routingMiB, float64(m1.HeapAlloc-m0.HeapAlloc)/(1<<20))
		return s
	})
	sort.Float64s(routingMiB)
	out["topology.routing_mib"] = median(routingMiB)
	rep("topology.neighbors_ns", func() float64 {
		n, size := 0, torus.Size()
		ns := nsPer(10*size, func(i int) { n += len(torus.Neighbors(i % size)) })
		sink = n
		return ns
	})

	// workload.
	rep("workload.fib_build_ns_per_goal", func() float64 {
		var tr *workload.Tree
		start := time.Now()
		tr = workload.NewFib(13)
		return float64(time.Since(start).Nanoseconds()) / float64(tr.Count())
	})

	// metrics.
	rep("metrics.sample_add_ns", func() float64 {
		var s metrics.Sample
		return nsPer(100_000, func(i int) { s.Add(float64(i % 1000)) })
	})
	rep("metrics.sample_add_bounded_ns", func() float64 {
		var s metrics.Sample
		s.Bound(1024)
		return nsPer(100_000, func(i int) { s.Add(float64(i % 1000)) })
	})
	rep("metrics.hist_add_ns", func() float64 {
		var h metrics.Hist
		return nsPer(100_000, func(i int) { h.Add(i % 16) })
	})
	rep("metrics.percentile_us", func() float64 {
		var s metrics.Sample
		x := uint32(7)
		for i := 0; i < 10_000; i++ {
			x = x*1664525 + 1013904223
			s.Add(float64(x >> 8))
		}
		start := time.Now()
		s.Percentile(0.99)
		return float64(time.Since(start).Nanoseconds()) / 1e3
	})

	// scenario: fault-shard's script.
	script := faultScript(defaultSeed)
	var sc *scenario.Script
	var parseErr error
	rep("scenario.parse_us", func() float64 {
		return nsPer(100, func(int) {
			if s, err := scenario.Parse(script); err != nil {
				parseErr = err
			} else {
				sc = s
			}
		}) / 1e3
	})
	if parseErr != nil {
		return nil, parseErr
	}
	rep("scenario.expand_ms", func() float64 {
		return msOf(func() { sc.Expand(faultSide*faultSide, 15000) })
	})
	return out, nil
}

// sink keeps loop results alive so the compiler cannot drop the loop.
var sink int

// nopAction is an Action that does nothing.
type nopAction struct{}

func (nopAction) Act() {}

// pushPop returns ns per ScheduleAction+Step pair with delays drawn
// uniformly from [lo, lo+span) and 1024 events standing.
func pushPop(lo, span int) float64 {
	e := sim.NewEngine(1)
	x := uint32(1)
	delay := func() sim.Time {
		x = x*1664525 + 1013904223
		return sim.Time(lo + int(x>>8)%span)
	}
	for i := 0; i < 1024; i++ {
		e.ScheduleAction(delay(), nopAction{})
	}
	return nsPer(100_000, func(int) {
		e.ScheduleAction(delay(), nopAction{})
		e.Step()
	})
}

// timerRearm returns ns per firing of 1024 timers that each re-arm
// themselves 20 units ahead, the load tickers' pattern.
func timerRearm() float64 {
	e := sim.NewEngine(1)
	for i := 0; i < 1024; i++ {
		var t *sim.Timer
		t = sim.NewTimer(e, func() { t.Schedule(20) })
		t.Schedule(sim.Time(i % 20))
	}
	return nsPer(100_000, func(int) { e.Step() })
}

// nsPer returns the mean ns of fn(i) over i in [0, n).
func nsPer(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// msOf returns fn's duration in milliseconds.
func msOf(fn func()) float64 {
	start := time.Now()
	fn()
	return float64(time.Since(start).Nanoseconds()) / 1e6
}
