package machine

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"cwnsim/internal/sim"
	"cwnsim/internal/workload"
)

// JobSource feeds root goals ("jobs") into the machine over virtual
// time, turning the paper's closed one-tree-per-run experiment into an
// open system under sustained arrival traffic. The machine pulls
// arrivals one at a time: Next returns the delay from the previous
// arrival to the next one and the computation tree that job evaluates.
//
// Sources are single-use iterators — construct a fresh value per run,
// like strategies with mutable state. All randomness must come from the
// rng argument, a dedicated stream derived from the run seed but
// disjoint from the engine's own stream, so that arrival times are
// deterministic per seed and do not perturb the simulation's
// tie-breaking draws (single-job runs stay bit-for-bit identical to the
// paper reproduction).
type JobSource interface {
	// Name labels the stream in stats (the Workload field of reports).
	Name() string
	// Next returns the inter-arrival delay before the next job and the
	// tree it evaluates. ok=false means the stream is exhausted; the run
	// then completes once every in-flight job has responded.
	Next(rng *rand.Rand) (delay sim.Time, tree *workload.Tree, ok bool)
}

// srcSeedSalt decorrelates the arrival stream from the engine stream
// while keeping both pure functions of the run seed; obsSeedSalt does
// the same for the observer (sampling) stream. All three streams are
// pairwise disjoint, so neither feeding jobs nor watching utilization
// perturbs the simulation's own tie-break draws.
const (
	srcSeedSalt = 0x5DEECE66D
	obsSeedSalt = 0x2545F4914F6CDD1D
)

func newSourceRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ srcSeedSalt))
}

func newObserverRng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed ^ obsSeedSalt))
}

// schedule emits rounds of size simultaneous jobs, rounds gap units
// apart, the first at time zero: one round of one job is the paper's
// closed-system experiment, rounds of one job a fixed-interval stream,
// and larger rounds the flash-crowd pattern that stresses a balancer's
// rise time.
type schedule struct {
	tree    *workload.Tree
	name    string
	size    int
	gap     sim.Time
	rounds  int
	emitted int
}

// NewSingleJob returns the one-shot source the paper experiments use.
// Its name is the tree's name, so single-job stats keep their labels.
func NewSingleJob(tree *workload.Tree) JobSource {
	return &schedule{tree: tree, name: tree.Name, size: 1, rounds: 1}
}

// NewFixedInterval returns a source emitting jobs copies of tree, one
// every gap units of virtual time starting at time zero. gap and jobs
// must be positive.
func NewFixedInterval(tree *workload.Tree, gap sim.Time, jobs int) JobSource {
	if gap <= 0 {
		panic("machine: NewFixedInterval needs gap > 0")
	}
	if jobs < 1 {
		panic("machine: NewFixedInterval needs jobs >= 1")
	}
	name := fmt.Sprintf("%s@interval(gap=%d,n=%d)", tree.Name, gap, jobs)
	return &schedule{tree: tree, name: name, size: 1, gap: gap, rounds: jobs}
}

// NewBurst returns a bursty source: bursts rounds of size simultaneous
// jobs, rounds gap units apart, the first at time zero.
func NewBurst(tree *workload.Tree, size int, gap sim.Time, bursts int) JobSource {
	if size < 1 || bursts < 1 {
		panic("machine: NewBurst needs size >= 1 and bursts >= 1")
	}
	if gap <= 0 {
		panic("machine: NewBurst needs gap > 0")
	}
	name := fmt.Sprintf("%s@burst(size=%d,gap=%d,n=%d)", tree.Name, size, gap, bursts)
	return &schedule{tree: tree, name: name, size: size, gap: gap, rounds: bursts}
}

func (s *schedule) Name() string { return s.name }

func (s *schedule) Next(*rand.Rand) (sim.Time, *workload.Tree, bool) {
	if s.emitted >= s.size*s.rounds {
		return 0, nil, false
	}
	s.emitted++
	if s.emitted == 1 || (s.emitted-1)%s.size != 0 {
		return 0, s.tree, true
	}
	return s.gap, s.tree, true
}

// poisson emits jobs with exponentially distributed inter-arrival gaps —
// the memoryless arrival process production traffic studies assume.
type poisson struct {
	tree    *workload.Tree
	meanGap float64
	jobs    int
	emitted int
}

// NewPoisson returns a Poisson source: jobs copies of tree with
// exponential inter-arrival gaps of the given mean (so the offered rate
// is 1/meanGap jobs per unit time). The first gap is drawn too — the
// stream starts mid-flow, as an open system does. Gaps are rounded down
// to the integer clock with a floor of 1 unit.
func NewPoisson(tree *workload.Tree, meanGap float64, jobs int) JobSource {
	// !(meanGap > 0) also rejects NaN, which meanGap <= 0 would not.
	if !(meanGap > 0) || math.IsInf(meanGap, 0) {
		panic("machine: NewPoisson needs a finite meanGap > 0")
	}
	if jobs < 1 {
		panic("machine: NewPoisson needs jobs >= 1")
	}
	return &poisson{tree: tree, meanGap: meanGap, jobs: jobs}
}

func (s *poisson) Name() string {
	return fmt.Sprintf("%s@poisson(gap=%g,n=%d)", s.tree.Name, s.meanGap, s.jobs)
}

func (s *poisson) Next(rng *rand.Rand) (sim.Time, *workload.Tree, bool) {
	if s.emitted >= s.jobs {
		return 0, nil, false
	}
	s.emitted++
	return scaledUnits(rng.ExpFloat64() * s.meanGap), s.tree, true
}

// jobState is the machine's record of one injected job: the root goal's
// tree (per-job, so heterogeneous streams are possible) and the times
// bounding its sojourn in the system. Job states are pooled — recycled
// when the root response is delivered.
//
//simlint:pooled
type jobState struct {
	id         int64
	tree       *workload.Tree
	injectedAt sim.Time

	// epoch is the job's attempt counter for crash-with-state-loss
	// runs: a crash that destroys any of the job's state bumps it,
	// instantly staling every goal of the old attempt, and the job is
	// retried from its root. It also bumps when the pooled struct is
	// recycled for a new job, so a stale goal that outlives its job can
	// never alias the next occupant. Monotonic per struct — never reset.
	epoch uint64
	// aborting marks the job as already collected by the crash sweep in
	// progress, so one crash that destroys several of its goals aborts
	// it exactly once.
	aborting bool
	// retries counts the crash retries consumed so far; once it reaches
	// Config.RetryLimit (when set) the next abort abandons the job
	// instead of re-injecting it.
	retries int

	// Checkpoint/restart state. progress counts the goals the *current
	// attempt* has executed — the job's position in its deterministic
	// tree walk. At each checkpoint tick's window barrier the
	// coordinator copies every live job's progress into ckptProgress
	// and stamps ckptSeen with the tick's time (see shardGroup.applyOp)
	// — no cross-shard write on the execution hot path; progress itself
	// is bumped with an atomic add, since several shards can execute
	// one job's goals inside a window. On a crash retry the durable
	// frontier (the last tick's snapshot; zero for a job injected after
	// it) becomes a replay horizon: goals of the retried attempt
	// that start service before replayUntil execute in one time unit
	// each instead of their full service demand — work before the
	// frontier is restored, not recomputed. The horizon is virtual
	// time, not a countdown, so it is read-only while the attempt runs
	// and identical under any shard schedule. progress resets per
	// attempt; ckptProgress/ckptSeen persist — the snapshot is durable
	// across the crash.
	progress     atomic.Int64
	ckptProgress int64
	ckptSeen     sim.Time
	replayUntil  sim.Time
}

// JobRecord is one completed job's latency record, the per-job datum an
// open-system benchmark aggregates into mean/p50/p99 sojourn.
type JobRecord struct {
	ID         int64
	InjectedAt sim.Time
	DoneAt     sim.Time
	Result     int64
}

// Sojourn returns the job's time in system: injection to root response.
func (r JobRecord) Sojourn() sim.Time { return r.DoneAt - r.InjectedAt }

// completion is one entry of a shard's completion log (Machine.sojLog):
// a completed job's injection time and its sojourn.
type completion struct{ injectedAt, sojourn sim.Time }
