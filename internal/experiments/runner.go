package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"cwnsim/internal/machine"
	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/trace"
)

// RunSpec is one complete simulation specification.
type RunSpec struct {
	Label          string       `json:"label,omitempty"`
	Topo           TopoSpec     `json:"topo"`
	Workload       WorkloadSpec `json:"workload"`
	Strategy       StrategySpec `json:"strategy"`
	Arrival        ArrivalSpec  `json:"arrival,omitzero"`         // zero value = the paper's single job
	Seed           int64        `json:"seed,omitempty"`           // default 1
	Warmup         int64        `json:"warmup,omitempty"`         // steady-state warm-up exclusion; 0 = off
	SampleInterval int64        `json:"sampleInterval,omitempty"` // time-series sampling; 0 = off
	MonitorPE      bool         `json:"monitorPE,omitempty"`      // per-PE frames (needs SampleInterval)
	LoadMetric     string       `json:"loadMetric,omitempty"`     // "", "queue", "queue+pending"
	GoalHopTime    int64        `json:"goalHopTime,omitempty"`    // override; 0 = default
	RespHopTime    int64        `json:"respHopTime,omitempty"`
	MaxTime        int64        `json:"maxTime,omitempty"`      // measurement horizon override; 0 = default
	SojournBound   int64        `json:"sojournBound,omitempty"` // cap on retained sojourn observations; 0 = exact
	SeriesBound    int64        `json:"seriesBound,omitempty"`  // cap on retained time-series points/frames; 0 = exact

	// Shards runs the machine on that many conservative-lookahead
	// spatial shards (machine.Config.Shards): 0 and 1 are the same
	// one-shard run, >= 2 = parallel execution with deterministic
	// results per (seed, shards). ShardSerial replays a multi-shard
	// run's window protocol on one goroutine — the determinism reference
	// the shard cross-check pins parallel runs against.
	Shards      int  `json:"shards,omitempty"`
	ShardSerial bool `json:"shardSerial,omitempty"`

	// Scenario scripts a dynamic environment into the run, in the
	// compact text form of scenario.Parse — e.g.
	// "fail:pes=25%@t=5000,recover@t=10000". Empty = static machine.
	Scenario string `json:"scenario,omitempty"`
	// RetryLimit bounds crash retries per job before the machine
	// abandons it (machine.Config.RetryLimit); 0 retries without bound.
	// RetryBackoff delays each retry by attempt × RetryBackoff virtual
	// time units. Only meaningful with a crashing Scenario.
	RetryLimit   int   `json:"retryLimit,omitempty"`
	RetryBackoff int64 `json:"retryBackoff,omitempty"`
	// NoGoalDetail switches off the per-goal QueueDelay/GoalHops/
	// GoalDist bookkeeping (machine.Config.TrackGoalDetail) for sweeps
	// that only read latency and throughput.
	NoGoalDetail bool `json:"noGoalDetail,omitempty"`

	// Trace attaches an event sink to the run (machine.Config.Trace);
	// nil = no tracing. Not serializable — set programmatically, e.g.
	// by the CLIs' -trace-out span export. Sinks see events on one
	// goroutine only (sharded runs replay at finalize), but a sink must
	// still not be shared between concurrently executing specs.
	Trace trace.Sink `json:"-"`
}

// Name returns a human-readable run identifier.
func (rs RunSpec) Name() string {
	if rs.Label != "" {
		return rs.Label
	}
	name := fmt.Sprintf("%s | %s | %s", rs.Strategy.Label(), rs.Topo.Label(), rs.Workload.Label())
	if !rs.Arrival.IsSingle() {
		name += " | " + rs.Arrival.Label()
	}
	if rs.Scenario != "" {
		name += " | " + rs.Scenario
	}
	return name
}

// Config materializes the machine configuration for this run.
func (rs RunSpec) Config() machine.Config {
	cfg := machine.DefaultConfig()
	if rs.Seed != 0 {
		cfg.Seed = rs.Seed
	}
	cfg.Warmup = sim.Time(rs.Warmup)
	cfg.SampleInterval = sim.Time(rs.SampleInterval)
	cfg.MonitorPE = rs.MonitorPE
	if rs.LoadMetric == "queue+pending" {
		cfg.LoadMetric = machine.LoadQueuePlusPending
	}
	if rs.GoalHopTime > 0 {
		cfg.GoalHopTime = sim.Time(rs.GoalHopTime)
	}
	if rs.RespHopTime > 0 {
		cfg.RespHopTime = sim.Time(rs.RespHopTime)
	}
	if rs.MaxTime > 0 {
		cfg.MaxTime = sim.Time(rs.MaxTime)
	}
	cfg.SojournBound = int(rs.SojournBound)
	cfg.SeriesBound = int(rs.SeriesBound)
	cfg.TrackGoalDetail = !rs.NoGoalDetail
	if rs.Scenario != "" {
		sc, err := scenario.Parse(rs.Scenario)
		if err != nil {
			panic(err.Error()) // ExecuteErr converts spec panics to errors
		}
		cfg.Scenario = sc
	}
	cfg.RetryLimit = rs.RetryLimit
	cfg.RetryBackoff = sim.Time(rs.RetryBackoff)
	cfg.Shards = rs.Shards
	cfg.ShardSerial = rs.ShardSerial
	cfg.Trace = rs.Trace
	return cfg
}

// Result is the outcome of one run.
type Result struct {
	Spec     RunSpec
	Stats    *machine.Stats
	Goals    int
	Util     float64 // percent, the paper's y-axis
	Speedup  float64
	Bound    float64 // min(P, T1/T∞): the workload's speedup ceiling
	Balance  float64 // Jain index over per-PE busy time
	AvgHops  float64
	Makespan sim.Time
	Wall     time.Duration

	// Stream metrics (single-job runs report their one job here too).
	Jobs       int64   // completed jobs
	MeanSoj    float64 // mean sojourn time, warm-up excluded
	P50Soj     float64 // median sojourn
	P99Soj     float64 // tail sojourn — the serving benchmark's headline
	Throughput float64 // completed jobs per unit virtual time, whole run
	SteadyTput float64 // completions per unit time, post-warm-up window only

	// Scenario metrics (zero / nil on static runs). EffUtil is busy
	// time over the capacity that actually existed (blackout time
	// excluded). Recovery is the tail-latency recovery report keyed by
	// job COMPLETION time and RecoveryInj its companion keyed by job
	// INJECTION time (what newly arriving jobs saw); both present when
	// the run sampled (SampleInterval > 0).
	Requeued    int64
	EffUtil     float64
	Recovery    *scenario.Recovery
	RecoveryInj *scenario.Recovery

	// Crash (state-loss) metrics, zero under blackout-only scripts:
	// goals destroyed or discarded by crashes, job attempts aborted,
	// root re-injections performed, and jobs given up after exhausting
	// RetryLimit. Goodput is completed over injected jobs — the
	// availability figure a bounded-retry policy trades against
	// latency (1 on a healthy completed run).
	GoalsLost     int64
	JobsAborted   int64
	JobsRetried   int64
	JobsAbandoned int64
	Goodput       float64
}

// OfBound returns the measured speedup as a fraction of the workload's
// parallelism ceiling on this machine size.
func (r *Result) OfBound() float64 {
	if r.Bound == 0 {
		return 0
	}
	return r.Speedup / r.Bound
}

// Saturated reports whether the run hit its measurement horizon with
// jobs still in flight — the stream outran the machine.
func (r *Result) Saturated() bool { return !r.Stats.Completed }

// ExecuteErr builds and runs the specified simulation synchronously. A
// single-job run that hits MaxTime returns an error (a goal was lost or
// the machine is misconfigured — the closed system must drain). An
// arrival stream that hits MaxTime is the saturation regime: it is
// reported as a Result with Saturated() true, not an error. Builder and
// configuration panics (unknown registry kinds, bad arrival parameters,
// invalid warm-up) are converted to errors, so a bad spec fails its own
// run rather than crashing a whole sweep.
func (rs RunSpec) ExecuteErr() (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			// Name() rebuilds the strategy and would re-panic on an
			// unknown kind; identify the run by its raw spec labels.
			res, err = nil, fmt.Errorf("experiments: run %s|%s|%s: %v",
				rs.Strategy.Kind, rs.Topo.Label(), rs.Workload.Label(), r)
		}
	}()
	topo := rs.Topo.Build()
	tree := rs.Workload.Build()
	strat := rs.Strategy.Build()
	cfg := rs.Config()
	start := time.Now()
	m := machine.NewStream(topo, rs.Arrival.Build(tree), strat, cfg)
	st := m.Run()
	if !st.Completed && rs.Arrival.IsSingle() {
		return nil, fmt.Errorf("experiments: run %q aborted at MaxTime=%d — a goal was lost or the machine is misconfigured", rs.Name(), cfg.MaxTime)
	}
	if st.Stalled {
		return nil, fmt.Errorf("experiments: run %q stalled with %d job(s) in flight and no work anywhere — a goal was lost", rs.Name(), st.JobsInjected-st.JobsDone)
	}
	// Bound is a closed-system figure (one tree's parallelism ceiling);
	// it has no analogue for a stream's aggregate speedup, so stream
	// runs report 0 rather than a misleading per-job ceiling.
	var bound float64
	if rs.Arrival.IsSingle() {
		bound = tree.MaxSpeedup(int64(cfg.GrainTime), int64(cfg.CombineTime))
		if p := float64(topo.Size()); bound > p {
			bound = p
		}
	}
	res = &Result{
		Spec:          rs,
		Stats:         st,
		Goals:         st.Goals,
		Util:          st.UtilizationPercent(),
		Speedup:       st.Speedup(),
		Bound:         bound,
		Balance:       st.BalanceIndex(),
		AvgHops:       st.AvgGoalHops(),
		Makespan:      st.Makespan,
		Wall:          time.Since(start),
		Jobs:          st.JobsDone,
		MeanSoj:       st.MeanSojourn(),
		P50Soj:        st.SojournP50(),
		P99Soj:        st.SojournP99(),
		Throughput:    st.Throughput(),
		SteadyTput:    st.SteadyThroughput(),
		Requeued:      st.GoalsRequeued,
		EffUtil:       100 * st.EffectiveUtilization(),
		GoalsLost:     st.GoalsLost,
		JobsAborted:   st.JobsAborted,
		JobsRetried:   st.JobsRetried,
		JobsAbandoned: st.JobsAbandoned,
		Goodput:       st.Goodput(),
	}
	if !cfg.Scenario.Empty() && cfg.SampleInterval > 0 {
		// Recovery reads disruption/restore times from the machine's
		// EXPANDED script — chaos generators resolved — in both
		// keyings: completion-time windows (stragglers echo past the
		// restore) and injection-time windows (what new arrivals saw).
		script := m.ScenarioScript()
		rec := scenario.AnalyzeRecovery(script, st.SojournWindows,
			st.GoalsRequeued, st.ServiceAborts, scenario.AnalyzeConfig{})
		res.Recovery = &rec
		recInj := scenario.AnalyzeRecovery(script, st.InjSojournWindows,
			st.GoalsRequeued, st.ServiceAborts, scenario.AnalyzeConfig{})
		res.RecoveryInj = &recInj
	}
	return res, nil
}

// Execute is ExecuteErr for callers that treat failure as fatal.
func (rs RunSpec) Execute() *Result {
	r, err := rs.ExecuteErr()
	if err != nil {
		panic(err.Error())
	}
	return r
}

// RunAll executes specs concurrently on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS) and returns results in spec order.
// Each simulation is independent, so parallelism across runs is free
// determinism-wise. A failing run leaves a nil slot in the results and
// contributes to the joined error, so one bad spec no longer crashes a
// whole sweep.
func RunAll(specs []RunSpec, workers int) ([]*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]*Result, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i], errs[i] = specs[i].ExecuteErr()
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	return results, errors.Join(errs...)
}
