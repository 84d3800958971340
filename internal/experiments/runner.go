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

// Config materializes the machine configuration for this run. It
// panics on a scenario that does not parse, which Validate reports.
func (rs RunSpec) Config() machine.Config {
	cfg, err := rs.config()
	if err != nil {
		panic(err)
	}
	return cfg
}

func (rs RunSpec) config() (machine.Config, error) {
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
	if rs.Scenario != "" {
		sc, err := scenario.Parse(rs.Scenario)
		if err != nil {
			return cfg, err
		}
		cfg.Scenario = sc
	}
	cfg.RetryLimit = rs.RetryLimit
	cfg.RetryBackoff = sim.Time(rs.RetryBackoff)
	cfg.Shards = rs.Shards
	cfg.ShardSerial = rs.ShardSerial
	cfg.Trace = rs.Trace
	return cfg, nil
}

// Result is the outcome of one run. Every run metric comes from the
// embedded Stats under the name Stats gives it (r.Makespan,
// r.Speedup(), r.SojournP99()); Result adds only what the machine does
// not know.
type Result struct {
	Spec RunSpec
	*machine.Stats
	Bound float64 // min(P, T1/T∞): the workload's speedup ceiling
	Wall  time.Duration

	// Recovery is the scenario tail-latency recovery report keyed by
	// job COMPLETION time and RecoveryInj its companion keyed by job
	// INJECTION time (what newly arriving jobs saw); both nil unless
	// the run was scripted and sampled (SampleInterval > 0).
	Recovery    *scenario.Recovery
	RecoveryInj *scenario.Recovery
}

// OfBound returns the measured speedup as a fraction of the workload's
// parallelism ceiling on this machine size.
func (r *Result) OfBound() float64 {
	if r.Bound == 0 {
		return 0
	}
	return r.Speedup() / r.Bound
}

// Saturated reports whether the run hit its measurement horizon with
// jobs still in flight — the stream outran the machine.
func (r *Result) Saturated() bool { return !r.Stats.Completed }

// ExecuteErr validates the spec, then builds and runs the simulation
// synchronously. An invalid spec returns Validate's error before
// anything is built. A single-job run that hits MaxTime returns an
// error (a goal was lost or the machine is misconfigured — the closed
// system must drain). An arrival stream that hits MaxTime is the
// saturation regime: it is reported as a Result with Saturated() true,
// not an error.
func (rs RunSpec) ExecuteErr() (*Result, error) {
	if err := rs.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: run %w", err)
	}
	return rs.execute(rs.Strategy.Build())
}

// execute builds and runs rs's machine with strat. A panic raised while
// the simulation runs fails this run with an error, so RunAll never
// crashes a sweep.
func (rs RunSpec) execute(strat machine.Strategy) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("experiments: run %s: %v", rs.ref(), r)
		}
	}()
	topo := rs.Topo.Build()
	tree := rs.Workload.Build()
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
	res = &Result{Spec: rs, Stats: st, Bound: bound, Wall: time.Since(start)}
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
