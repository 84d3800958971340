package machine

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"cwnsim/internal/scenario"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/trace"
)

// LoadMetric selects how a PE's advertised load is computed.
type LoadMetric int

const (
	// LoadQueue counts the messages (goals + responses) waiting in the
	// ready queue — the paper's measure.
	LoadQueue LoadMetric = iota
	// LoadQueuePlusPending adds the number of tasks blocked awaiting
	// responses: the "future commitments" refinement the paper's
	// conclusions propose after observing the extended tail in Plot 11.
	LoadQueuePlusPending
)

func (m LoadMetric) String() string {
	switch m {
	case LoadQueue:
		return "queue"
	case LoadQueuePlusPending:
		return "queue+pending"
	default:
		return fmt.Sprintf("LoadMetric(%d)", int(m))
	}
}

// Config holds the machine's charged times and policies. All durations
// are in abstract simulation units, as in the paper. Use DefaultConfig
// and override fields as needed.
type Config struct {
	// Seed drives every random choice in the run (tie-breaks, periodic
	// process phases). Equal seeds give identical runs.
	Seed int64

	// GrainTime is the PE service time to execute one goal body
	// (multiplied by the task's Work factor).
	GrainTime sim.Time
	// CombineTime is the PE service time to integrate one response
	// message into its waiting parent task.
	CombineTime sim.Time

	// GoalHopTime is the channel occupancy for one hop of a goal
	// message; RespHopTime likewise for responses and CtrlHopTime for
	// the "very short" load/control words. The paper chose these low
	// relative to GrainTime so that communication stagnation does not
	// interfere with the load-distribution comparison.
	GoalHopTime sim.Time
	RespHopTime sim.Time
	CtrlHopTime sim.Time

	// LoadInterval is the period of each PE's load-information broadcast
	// to its neighbors; <= 0 disables periodic broadcasts. Every message
	// also carries its sender's current load, updating the receiver's
	// view on delivery (the paper's piggybacking), so loads still
	// propagate with it off. Like every periodic process, each PE's
	// broadcast starts at a phase drawn uniformly from its first period,
	// so the PEs' asynchronous processes do not fire in lockstep.
	LoadInterval sim.Time
	// LoadMetric selects the advertised load definition.
	LoadMetric LoadMetric

	// SampleInterval is the utilization time-series sampling period
	// (plots 11-16); <= 0 disables sampling. Every shard samples its
	// own PE block at the same globally synchronized instants (the
	// sampler's phase draws from a salted stream of the plain run seed,
	// identical on every shard and apart from the engine stream, so
	// monitoring cannot perturb the simulated result), and the
	// coordinator folds the per-shard partial sums into one
	// machine-wide series.
	SampleInterval sim.Time
	// MonitorPE additionally records every PE's utilization at each
	// sample — ORACLE's load-distribution monitor (requires
	// SampleInterval > 0). Frames land in Stats.Monitor, each the
	// concatenation of every shard's PE block.
	MonitorPE bool
	// Trace receives lifecycle events (goal created/sent/accepted/
	// executed, responses). nil disables tracing. Shards buffer their
	// events privately in engine order and the coordinator replays the
	// merged (At, shard, seq)-ordered stream into the sink at finalize
	// (one shard replays its buffer a chunk at a time), so Record always
	// runs on one goroutine (trace package doc, "Sharded runs").
	Trace trace.Sink

	// RootPE is where the root goal is injected.
	RootPE int

	// MaxTime aborts a run that has not completed by this virtual time.
	// For single-job runs it is a safety net (completed runs stop at
	// root-response delivery); for arrival streams it bounds the
	// measurement horizon — an overloaded stream legitimately runs to
	// MaxTime with jobs still in flight (saturation).
	MaxTime sim.Time

	// Warmup excludes the stream's ramp-up from steady-state statistics:
	// jobs injected before Warmup are left out of the steady sojourn
	// sample, and SteadyUtilization measures busy time accrued after
	// this instant. 0 (the default) disables the exclusion and adds no
	// events to the run.
	Warmup sim.Time

	// SojournBound caps the run's per-job statistics. Beyond the cap the
	// sojourn sample collapses into a bounded-memory streaming
	// histogram (mean/min/max/count stay exact, percentiles become
	// approximate with ~3% relative error) and Stats.JobRecords stops
	// growing — only the first SojournBound records are retained. 0
	// (the default) keeps every observation and record: exact
	// percentiles, memory linear in completed jobs. It does not bound a
	// scripted, sampled run (a Scenario with SampleInterval > 0): that
	// run logs every completion, 16 bytes each, for its windowed sojourn
	// series, whatever the bound.
	SojournBound int

	// SeriesBound caps every sampled time series (Timeline, QueueLen,
	// QueueImbalance, SojournWindows, InjSojournWindows) at this many
	// retained points and the per-PE Monitor at this many frames: past
	// the cap a series halves itself and doubles its recording stride
	// (metrics.Series.Bound), so a month-long virtual run holds a
	// uniformly thinned timeline instead of millions of points.
	// Retained points keep their exact windowed values — only time
	// resolution is lost — but recovery analysis over a bounded
	// SojournWindows reads a coarser grid, so scenario runs should
	// bound generously. 0 (the default) retains every sample: bounded
	// memory is opt-in, like SojournBound, because the paper-scale runs
	// are short and exact plots are the point. 4096 points cover a
	// month of virtual time at SampleInterval=100 with two halvings and
	// ~64KB per series — the recommended setting for long-horizon
	// sweeps (decision record: ROADMAP perf section). InjSojournWindows
	// is bucketed once at finalize, on the least power-of-two multiple
	// of SampleInterval that leaves at most SeriesBound windows, so it
	// reads a coarser injection grid with exact per-window percentiles.
	// The bound caps the points, not the completion log both sojourn
	// series are computed from, which a scripted, sampled run keeps
	// whole (see SojournBound).
	SeriesBound int

	// PESpeeds optionally makes the machine heterogeneous: PE i's
	// service times are divided by PESpeeds[i] (1.0 = nominal, 0.5 =
	// half speed). nil means uniform speed — the paper's setting. An
	// extension knob: load balancing on heterogeneous machines.
	PESpeeds []float64

	// Scenario optionally scripts a dynamic environment into the run:
	// PE slowdowns and failures, link degradation and outages,
	// checkpoint ticks and arrival-rate shocks, replayed
	// deterministically at their scripted virtual times. nil (or an
	// empty script) leaves the run bit-for-bit identical to an
	// unscripted one. The script expands once at construction and the
	// coordinator lands a window barrier on each op's exact scripted
	// instant, applying it there — before that instant's machine events
	// — and routing it to the shards owning the affected PEs and
	// channels (see machine doc.go, "Sharded execution"). Validate
	// refuses a script whose failures, taken in firing order up to
	// MaxTime, would leave no PE live.
	Scenario *scenario.Script

	// RetryLimit bounds how many times a crash-aborted job is retried
	// before the machine gives up on it (Stats.JobsAbandoned). 0 (the
	// default) retries unconditionally — the pre-policy behavior, where
	// JobsRetried == JobsAborted always. Only meaningful with a
	// Scenario that crashes PEs.
	RetryLimit int

	// RetryBackoff delays each retry's root re-injection by
	// attempt-number × RetryBackoff virtual time units (first retry
	// waits one backoff, second two, ...). 0 (the default) re-injects
	// immediately at the abort instant, as before.
	RetryBackoff sim.Time

	// Shards partitions the PE index space into that many contiguous
	// spatial shards, each owning its own event engine and (for Shards
	// >= 2) its own goroutine, synchronized by conservative lookahead
	// windows (see internal/machine doc.go, "Sharded execution"). 0
	// (the default) and 1 are the same run: one shard owning every PE,
	// whose window spans the whole run, cut only at scripted op
	// instants. Shards >= 2 runs deterministically (a pure function of
	// seed and shard count, independent of thread schedule) but orders
	// same-timestamp events differently than one shard, so only
	// conservation totals — per-PE goal counts, job counts, sojourn
	// distributions — are comparable bit-for-bit across shard counts.
	// The count is clamped to the machine size. SequentialOnly
	// strategies run on one shard and are refused on several;
	// sampling, monitoring, tracing and scripted Scenarios work at any
	// count (per-shard capture / barrier application, merged
	// deterministically).
	Shards int

	// ShardSerial executes a multi-shard run's window protocol on one
	// runner, the calling goroutine, shard by shard, instead of on
	// min(Shards, GOMAXPROCS) runners in parallel — same code path,
	// same event order, no concurrency. A parallel run must match its
	// serial replay bit for bit (pinned by cross-check tests): that is
	// the proof the parallel result does not depend on the thread
	// schedule. Meaningful only with Shards >= 2 (one shard always runs
	// on the calling goroutine).
	ShardSerial bool
}

// DefaultConfig returns the parameters used for the paper reproduction:
// grain 10, combine 5, goal/response hop 2, control hop 1, load and
// gradient intervals 20 (the paper's "fairly low" 20 units against total
// execution times of 1000-23000).
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		GrainTime:      10,
		CombineTime:    5,
		GoalHopTime:    2,
		RespHopTime:    2,
		CtrlHopTime:    1,
		LoadInterval:   20,
		LoadMetric:     LoadQueue,
		SampleInterval: 0,
		RootPE:         0,
		MaxTime:        2_000_000,
	}
}

// Validate reports a configuration that would make the simulation
// meaningless on a machine of numPEs PEs. NewStream panics with its
// error, so callers that take configurations from outside the program
// check them here first.
func (c Config) Validate(numPEs int) error {
	switch {
	case c.GrainTime <= 0:
		return errors.New("machine: GrainTime must be positive")
	case c.CombineTime <= 0:
		return errors.New("machine: CombineTime must be positive")
	case c.GoalHopTime <= 0 || c.RespHopTime <= 0 || c.CtrlHopTime <= 0:
		return errors.New("machine: hop times must be positive")
	case c.RootPE < 0 || c.RootPE >= numPEs:
		return fmt.Errorf("machine: RootPE %d out of range [0,%d)", c.RootPE, numPEs)
	case c.MaxTime <= 0:
		return errors.New("machine: MaxTime must be positive")
	case c.Warmup < 0:
		return errors.New("machine: Warmup must be non-negative")
	case c.Warmup >= c.MaxTime:
		return fmt.Errorf("machine: Warmup %d must precede MaxTime %d", c.Warmup, c.MaxTime)
	case c.PESpeeds != nil && len(c.PESpeeds) != numPEs:
		return fmt.Errorf("machine: PESpeeds has %d entries for %d PEs", len(c.PESpeeds), numPEs)
	}
	// Each of these durations is added to the clock: a hop time also to
	// a channel's busy-until on every message, the grain time times a
	// task's work, the backoff times the attempt number. So each is
	// capped where a scaled duration is.
	for _, h := range [...]struct {
		name string
		t    sim.Time
	}{
		{"GrainTime", c.GrainTime}, {"CombineTime", c.CombineTime},
		{"GoalHopTime", c.GoalHopTime}, {"RespHopTime", c.RespHopTime}, {"CtrlHopTime", c.CtrlHopTime},
		{"RetryBackoff", c.RetryBackoff},
	} {
		if h.t > maxScaled {
			return fmt.Errorf("machine: %s %d exceeds the longest duration, %d units", h.name, h.t, maxScaled)
		}
	}
	for i, s := range c.PESpeeds {
		// !(s > 0) also rejects NaN, which `s <= 0` lets through.
		if !(s > 0) || math.IsInf(s, 0) {
			return fmt.Errorf("machine: PESpeeds[%d] = %v must be finite and positive", i, s)
		}
	}
	if err := c.Scenario.Validate(numPEs); err != nil {
		return err
	}
	if err := c.Scenario.CheckExpansion(c.MaxTime); err != nil {
		return err
	}
	if err := c.validateLive(numPEs); err != nil {
		return err
	}
	switch {
	case c.RetryLimit < 0:
		return errors.New("machine: RetryLimit must be non-negative")
	case c.RetryBackoff < 0:
		return errors.New("machine: RetryBackoff must be non-negative")
	case c.MonitorPE && c.SampleInterval <= 0:
		return errors.New("machine: MonitorPE requires SampleInterval > 0")
	case c.SojournBound < 0:
		return errors.New("machine: SojournBound must be non-negative")
	case c.SeriesBound < 0:
		return errors.New("machine: SeriesBound must be non-negative")
	case c.SeriesBound == 1:
		return errors.New("machine: SeriesBound must be 0 (exact) or >= 2")
	case c.Shards < 0:
		return errors.New("machine: Shards must be non-negative")
	}
	return nil
}

// validateLive refuses a script whose failures, in firing order, leave
// no PE live — the machine panics when a fail or crash strikes its last
// live PE. It walks the failure events of the script expanded for the
// run (numPEs PEs up to MaxTime) by the machine's rules: striking a
// down PE does nothing, a recover with no targets revives every PE, and
// an event past MaxTime never applies. A lone chaos generator is not
// expanded, as it never strikes the last live PEs itself.
func (c Config) validateLive(numPEs int) error {
	if c.Scenario.Empty() {
		return nil
	}
	var evs []scenario.Event
	strikes, chaos := 0, 0
	for _, e := range c.Scenario.Events {
		switch e.Kind {
		case scenario.FailPE, scenario.CrashPE:
			strikes++
		case scenario.Chaos:
			chaos++
		case scenario.RecoverPE:
		default:
			continue
		}
		evs = append(evs, e)
	}
	if strikes == 0 && chaos < 2 {
		return nil
	}
	var down flips
	for _, e := range (&scenario.Script{Events: evs}).Expand(numPEs, c.MaxTime).Sorted() {
		if e.At > c.MaxTime {
			break
		}
		fails := e.Kind != scenario.RecoverPE
		switch {
		case e.PEs != nil:
			for _, pe := range e.PEs {
				down.set(pe, pe+1, fails)
			}
		case e.Frac > 0:
			down.set(numPEs-e.FracCount(numPEs), numPEs, fails)
		default: // recover every PE
			down = nil
		}
		if len(down) == 2 && down[1]-down[0] == numPEs {
			return fmt.Errorf("machine: scenario event %s fails the last live PE — the machine needs at least one", e)
		}
	}
	return nil
}

// flips is a set of PE indices held as the sorted points where
// membership flips: PE x is in the set when an odd number of points
// are <= x. A fraction's targets cost two points however many PEs they
// are, so the set grows with the script, not the machine.
type flips []int

// set puts [lo, hi) in the set, or takes it out.
func (f *flips) set(lo, hi int, in bool) {
	i, j := sort.SearchInts(*f, lo), sort.SearchInts(*f, hi+1)
	var edges []int
	if (i%2 == 1) != in { // membership just below lo
		edges = append(edges, lo)
	}
	if (j%2 == 1) != in { // membership from hi on
		edges = append(edges, hi)
	}
	*f = slices.Replace(*f, i, j, edges...)
}

// ValidateLinks reports a scripted link op (degradelink, droplink,
// restorelink) whose endpoints share no channel; call it once Validate
// has checked the endpoints' range. topo is called only when the script
// names a link, so a caller that has not built the topology yet builds
// it only then. NewStream panics with its error, like Validate's.
func (c Config) ValidateLinks(topo func() *topology.Topology) error {
	if c.Scenario.Empty() {
		return nil
	}
	for i, e := range c.Scenario.Events {
		if (e.Kind == scenario.DegradeLink || e.Kind == scenario.RestoreLink) && len(topo().AppendChannelsBetween(nil, e.A, e.B)) == 0 {
			return fmt.Errorf("machine: scenario event %d (%s): PEs %d and %d share no channel", i, e.Kind, e.A, e.B)
		}
	}
	return nil
}
