package main

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cwnsim/internal/experiments"
	"cwnsim/internal/machine"
	"cwnsim/internal/topology"
	"cwnsim/internal/trace"
	"cwnsim/internal/workload"
)

// passResult is what one cold pass reports to the parent process, as
// one JSON line on its standard output.
type passResult struct {
	// Digests holds one digest per run, in spec order; "" marks a run
	// that returned an error or broke an invariant.
	Digests  []string `json:"digests"`
	Failures []string `json:"failures,omitempty"`
	SetupS   float64  `json:"setup_s"`
	WallS    float64  `json:"wall_s"`
	// RunS is the host time the simulations ran, set-up excluded.
	RunS    float64 `json:"run_s"`
	Events  uint64  `json:"events"`
	PeakRSS float64 `json:"peak_rss_mib"`
	// Counters are this pass's per-layer counts, keyed by metric name.
	Counters map[string]float64 `json:"counters"`
}

// passOptions selects how one pass runs.
type passOptions struct {
	seed int64
	// traced adds a CPU profile, a trace.Counter sink per run and spans
	// around the benchmark's calls, written under out.
	traced bool
	// serial replays sharded runs on one goroutine (ShardSerial).
	serial bool
	out    string
}

// profileHz is the traced pass's CPU sampling rate. The default 100 Hz
// leaves a 0.3 s pass with too few samples to attribute.
const profileHz = 500

// runPass executes one pass of w in this process. It is meant to be the
// only work of a fresh process, so its set-up is cold and its peak RSS
// is its own.
func runPass(w benchWorkload, o passOptions) (passResult, error) {
	specs := w.specs(o.seed)
	var sinks []*trace.Counter
	var spans *spanLog
	var profile *os.File
	for i := range specs {
		specs[i].ShardSerial = o.serial
	}
	if o.traced {
		spans = newSpanLog()
		sinks = make([]*trace.Counter, len(specs))
		for i := range specs {
			sinks[i] = &trace.Counter{}
			specs[i].Trace = sinks[i]
		}
		f, err := os.Create(filepath.Join(o.out, w.name+".cpu.pprof"))
		if err != nil {
			return passResult{}, err
		}
		defer f.Close() // error paths; the success path checks Close below
		profile = f
		// Setting the rate first makes StartCPUProfile keep it; the
		// runtime logs a one-line warning to standard error about it.
		runtime.SetCPUProfileRate(profileHz)
		if err := pprof.StartCPUProfile(f); err != nil {
			return passResult{}, err
		}
	}

	res := passResult{Digests: make([]string, len(specs))}
	var stats []*machine.Stats // nil entries for failed runs
	var runWalls time.Duration
	before := sampleRuntime()
	if w.sweep {
		// Construction-only pass, cold: it is the first work of the
		// process. RunAll below builds every machine again.
		start := time.Now()
		for i, spec := range specs {
			if _, err := build(spec, spans); err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("run %d: %v", i, err))
			}
		}
		res.SetupS = time.Since(start).Seconds()
		start = time.Now()
		var results []*experiments.Result
		var err error
		spans.span("experiments", "experiments.RunAll", func() {
			results, err = experiments.RunAll(specs, sweepWorkers)
		})
		res.WallS = time.Since(start).Seconds()
		if err != nil {
			res.Failures = append(res.Failures, err.Error())
		}
		res.RunS = res.WallS
		stats = make([]*machine.Stats, len(specs))
		for i, r := range results {
			if r != nil {
				stats[i] = r.Stats
				runWalls += r.Wall
			}
		}
	} else {
		spec := specs[0]
		start := time.Now()
		m, err := build(spec, spans)
		res.SetupS = time.Since(start).Seconds()
		var st *machine.Stats
		if err == nil {
			runStart := time.Now()
			spans.span("machine", "Machine.Run", func() { st, err = run(m) })
			res.RunS = time.Since(runStart).Seconds()
		}
		res.WallS = time.Since(start).Seconds()
		runWalls = time.Duration(res.RunS * float64(time.Second))
		stats = []*machine.Stats{st}
		if err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("run 0: %v", err))
		}
	}
	after := sampleRuntime()
	if o.traced {
		pprof.StopCPUProfile()
		if err := profile.Close(); err != nil {
			return passResult{}, err
		}
	}

	spans.span("bench", "checks", func() {
		for i, st := range stats {
			if st == nil {
				res.Failures = append(res.Failures, fmt.Sprintf("run %d: no result", i))
				continue
			}
			res.Events += st.Events
			if err := checkRun(specs[i], specs[i].Workload.Build(), st); err != nil {
				res.Failures = append(res.Failures, fmt.Sprintf("run %d: %v", i, err))
				continue
			}
			res.Digests[i] = digest(st)
		}
	})

	// threads is how many threads the pass can keep busy: RunAll's
	// workers, or the run's shards.
	passS, workers, threads := res.WallS, 1.0, float64(max(1, specs[0].Shards))
	if w.sweep {
		passS, workers, threads = res.SetupS+res.WallS, sweepWorkers, sweepWorkers
	}
	threads = min(threads, float64(runtime.GOMAXPROCS(0)))
	res.Counters = stateCounters(stats)
	res.Counters["machine.shard_cpu_util"] = (after.userCPU - before.userCPU) / (passS * threads)
	res.Counters["experiments.runall_util"] = runWalls.Seconds() / (res.WallS * workers)
	res.Counters["gc.cpu_s"] = after.gcCPU - before.gcCPU
	res.Counters["gc.cycles"] = after.gcCycles - before.gcCycles
	res.Counters["gc.alloc_mib"] = (after.allocBytes - before.allocBytes) / (1 << 20)
	res.Counters["gc.alloc_objects"] = after.allocObjects - before.allocObjects
	if o.traced {
		for k := trace.GoalCreated; k <= trace.RespDelivered; k++ {
			var n int64
			for _, s := range sinks {
				n += s.Count(k)
			}
			res.Counters["trace."+strings.ReplaceAll(k.String(), "-", "_")] = float64(n)
		}
		if err := spans.write(filepath.Join(o.out, w.name+".spans.json")); err != nil {
			return res, err
		}
	}
	rss, err := peakRSSMiB()
	res.PeakRSS = rss
	return res, err
}

// build constructs one spec's machine the way RunSpec.ExecuteErr does,
// each step in its own span. Panics while building become errors.
func build(spec experiments.RunSpec, spans *spanLog) (m *machine.Machine, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("build: %v", r)
		}
	}()
	var topo *topology.Topology
	var tree *workload.Tree
	var strat machine.Strategy
	spans.span("topology", "TopoSpec.Build", func() { topo = spec.Topo.Build() })
	spans.span("workload", "WorkloadSpec.Build", func() { tree = spec.Workload.Build() })
	spans.span("core", "StrategySpec.Build", func() { strat = spec.Strategy.Build() })
	cfg := spec.Config()
	spans.span("machine", "machine.NewStream", func() {
		m = machine.NewStream(topo, spec.Arrival.Build(tree), strat, cfg)
	})
	return m, nil
}

// run runs a built machine; a panic inside the simulation becomes an
// error, so it fails the run rather than the pass.
func run(m *machine.Machine) (st *machine.Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("run: %v", r)
		}
	}()
	st = m.Run()
	if st.Stalled {
		return nil, errors.New("run stalled with jobs in flight")
	}
	return st, nil
}

// stateCounters sums the simulated statistics of a pass's runs.
func stateCounters(stats []*machine.Stats) map[string]float64 {
	c := map[string]float64{}
	var injected, done, hopTotal, hopSum float64
	for _, st := range stats {
		if st == nil {
			continue
		}
		c["sim.events"] += float64(st.Events)
		c["machine.msgs_goal"] += float64(st.MsgCounts[machine.MsgGoal])
		c["machine.msgs_resp"] += float64(st.MsgCounts[machine.MsgResponse])
		c["machine.msgs_load"] += float64(st.MsgCounts[machine.MsgLoad])
		c["machine.msgs_ctrl"] += float64(st.MsgCounts[machine.MsgControl])
		c["machine.max_channel_util"] = max(c["machine.max_channel_util"], st.MaxChannelUtilization())
		c["machine.goals_lost"] += float64(st.GoalsLost)
		c["machine.jobs_retried"] += float64(st.JobsRetried)
		injected += float64(st.JobsInjected)
		done += float64(st.JobsDone)
		n := float64(st.GoalHops.Total())
		hopTotal += n
		hopSum += st.GoalHops.Mean() * n
		c["core.goals_forwarded"] += n - float64(st.GoalHops.Count(0))
	}
	if injected > 0 {
		c["machine.goodput"] = done / injected
	}
	if hopTotal > 0 {
		c["core.goal_hops_mean"] = hopSum / hopTotal
	}
	return c
}

// runtimeSample is a reading of the process's runtime counters.
type runtimeSample struct {
	gcCPU, gcCycles, allocBytes, allocObjects, userCPU float64
}

func sampleRuntime() runtimeSample {
	s := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	rtmetrics.Read(s)
	value := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindFloat64:
			return v.Float64()
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		}
		return 0
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeSample{
		gcCPU:        value(s[0].Value),
		gcCycles:     value(s[1].Value),
		allocBytes:   value(s[2].Value),
		allocObjects: value(s[3].Value),
		userCPU:      float64(ru.Utime.Sec) + float64(ru.Utime.Usec)/1e6,
	}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}
