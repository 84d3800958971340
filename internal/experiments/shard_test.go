package experiments

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cwnsim/internal/machine"
)

// crossCase is one named, pinned run spec.
type crossCase struct {
	name string
	spec RunSpec
}

// shardCrossMatrix returns the pinned run specs the shard cross-check
// certifies: completing closed and open runs across the paper's
// topologies and both headline strategies. Every case must finish
// (drain its jobs) so conservation totals are well-defined; saturated
// horizons are excluded on purpose — at MaxTime the one-shard and
// multi-shard machines legitimately hold different in-flight sets.
func shardCrossMatrix() []crossCase {
	return []crossCase{
		{name: "closed/cwn-grid10-fib12",
			spec: RunSpec{Topo: Grid(10), Workload: Fib(12), Strategy: CWN(9, 2)}},
		{name: "closed/gm-grid10-fib12",
			spec: RunSpec{Topo: Grid(10), Workload: Fib(12), Strategy: GM(1, 2, 20)}},
		{name: "closed/cwn-torus8-fib12",
			spec: RunSpec{Topo: Torus(8), Workload: Fib(12), Strategy: CWN(5, 2)}},
		{name: "closed/gm-hyper6-fib11",
			spec: RunSpec{Topo: Hypercube(6), Workload: Fib(11), Strategy: GM(1, 2, 20)}},
		{name: "open/cwn-grid8-poisson",
			spec: RunSpec{Topo: Grid(8), Workload: Fib(9), Strategy: CWN(9, 2),
				Arrival: PoissonArrivals(60, 200), Warmup: 2_000}},
		{name: "open/gm-dlm10-poisson",
			spec: RunSpec{Topo: DLM(10, 5), Workload: Fib(9), Strategy: GM(1, 2, 20),
				Arrival: PoissonArrivals(60, 150), Warmup: 2_000}},
	}
}

// shardDigest is everything a full bit-for-bit comparison of two runs
// reads: the scalar fingerprint plus the per-PE and per-channel
// distributions (a reordering that conserves totals would still shift
// work between PEs).
type shardDigest struct {
	events    uint64
	makespan  int64
	result    int64
	totalBusy int64
	jobsDone  int64
	goalsExec int64
	sojMean   uint64 // bits, so a run that completes no job (NaN) equals itself
	sojP99    uint64
	msgs      string
	busyPerPE []int64
	goalsPE   []int64
}

func shardDigestOf(st *machine.Stats) shardDigest {
	busy := make([]int64, len(st.BusyPerPE))
	for i, b := range st.BusyPerPE {
		busy[i] = int64(b)
	}
	return shardDigest{
		events:    st.Events,
		makespan:  int64(st.Makespan),
		result:    st.Result,
		totalBusy: int64(st.TotalBusy),
		jobsDone:  st.JobsDone,
		goalsExec: st.GoalsExecuted,
		sojMean:   math.Float64bits(st.Sojourn.Mean()),
		sojP99:    math.Float64bits(st.Sojourn.Percentile(0.99)),
		msgs:      fmt.Sprint(st.MsgCounts),
		busyPerPE: busy,
		goalsPE:   st.GoalsPerPE,
	}
}

// shardCrossCheck certifies the multi-shard runtime on one spec, in two
// layers, and returns the first disagreement as an error:
//
//  1. Shards=k in parallel must equal its single-goroutine serial
//     replay (ShardSerial) bit for bit — results cannot depend on the
//     thread schedule.
//  2. Shards=k must agree with the one-shard run on everything
//     same-timestamp event order cannot change: completion, the
//     computed result, goal/response/job conservation, and the
//     internal consistency of the merged per-PE accounting.
//
// k is the parallel shard count to certify.
func shardCrossCheck(spec RunSpec, k int) error {
	run := func(shards int, serial bool) (*machine.Stats, error) {
		s := spec
		s.Shards = shards
		s.ShardSerial = serial
		r, err := s.ExecuteErr()
		if err != nil {
			return nil, err
		}
		return r.Stats, nil
	}
	one, err := run(1, false)
	if err != nil {
		return fmt.Errorf("shards=1: %w", err)
	}
	par, err := run(k, false)
	if err != nil {
		return fmt.Errorf("shards=%d parallel: %w", k, err)
	}
	ser, err := run(k, true)
	if err != nil {
		return fmt.Errorf("shards=%d serial: %w", k, err)
	}
	if a, b := shardDigestOf(par), shardDigestOf(ser); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("shards=%d parallel diverged from serial replay (thread schedule leaked into results):\n  par: %+v\n  ser: %+v", k, a, b)
	}
	if !par.Completed || !one.Completed {
		return fmt.Errorf("shards=%d completed=%v, one shard completed=%v (cross-check cases must drain)", k, par.Completed, one.Completed)
	}
	conserved := []struct {
		name string
		a, b int64
	}{
		{"result", par.Result, one.Result},
		{"goals", int64(par.Goals), int64(one.Goals)},
		{"goalsExecuted", par.GoalsExecuted, one.GoalsExecuted},
		{"respIntegrated", par.RespIntegrated, one.RespIntegrated},
		{"jobsInjected", par.JobsInjected, one.JobsInjected},
		{"jobsDone", par.JobsDone, one.JobsDone},
		{"sojournN", int64(par.Sojourn.N()), int64(one.Sojourn.N())},
	}
	for _, c := range conserved {
		if c.a != c.b {
			return fmt.Errorf("shards=%d %s = %d, one shard %d", k, c.name, c.a, c.b)
		}
	}
	var perPE, busy int64
	for _, g := range par.GoalsPerPE {
		perPE += g
	}
	for _, b := range par.BusyPerPE {
		busy += int64(b)
	}
	if perPE != par.GoalsExecuted {
		return fmt.Errorf("shards=%d per-PE goal counts sum to %d, want %d", k, perPE, par.GoalsExecuted)
	}
	if busy != int64(par.TotalBusy) {
		return fmt.Errorf("shards=%d per-PE busy sums to %d, want %d", k, busy, int64(par.TotalBusy))
	}
	return nil
}

// scenarioCrossCheck certifies the multi-shard runtime on a *scripted*
// spec — scenarios whose ops (crashes in particular) make outcomes
// placement-dependent, so the crash-free shardCrossCheck conservation
// laws do not all apply: at K >= 2 a crash kills whatever goals the
// shard-order message interleaving happened to place on the struck PEs,
// and re-execution legitimately differs from the one-shard walk. What
// the fault-tolerance contract pins instead:
//
//  1. Shards=k parallel must reproduce its serial replay bit for bit
//     (the thread schedule must not leak into results).
//  2. The bounded-retry ledger must balance machine-wide at one shard
//     and at k: JobsRetried + JobsAbandoned == JobsAborted, and — when
//     the spec sets a RetryLimit and the script crashes hard enough —
//     JobsAbandoned > 0, so the check exercises the abandonment path
//     rather than vacuously passing on a crash-free run.
//  3. The injection stream is placement-independent: JobsInjected must
//     agree across shard counts, and each completed run must account
//     for every job (done + abandoned == injected).
func scenarioCrossCheck(spec RunSpec, k int) error {
	run := func(shards int, serial bool) (*Result, error) {
		s := spec
		s.Shards = shards
		s.ShardSerial = serial
		return s.ExecuteErr()
	}
	one, err := run(1, false)
	if err != nil {
		return fmt.Errorf("shards=1: %w", err)
	}
	par, err := run(k, false)
	if err != nil {
		return fmt.Errorf("shards=%d parallel: %w", k, err)
	}
	ser, err := run(k, true)
	if err != nil {
		return fmt.Errorf("shards=%d serial: %w", k, err)
	}
	if a, b := shardDigestOf(par.Stats), shardDigestOf(ser.Stats); !reflect.DeepEqual(a, b) {
		return fmt.Errorf("shards=%d parallel diverged from serial replay (thread schedule leaked into results):\n  par: %+v\n  ser: %+v", k, a, b)
	}
	for _, m := range []struct {
		mode string
		st   *machine.Stats
	}{{"shards=1", one.Stats}, {fmt.Sprintf("shards=%d", k), par.Stats}} {
		if m.st.JobsRetried+m.st.JobsAbandoned != m.st.JobsAborted {
			return fmt.Errorf("%s retry ledger unbalanced: retried %d + abandoned %d != aborted %d",
				m.mode, m.st.JobsRetried, m.st.JobsAbandoned, m.st.JobsAborted)
		}
		if spec.RetryLimit > 0 && m.st.JobsAbandoned == 0 {
			return fmt.Errorf("%s abandoned no jobs under RetryLimit=%d — the check's crash script must exhaust some retry budget", m.mode, spec.RetryLimit)
		}
		if m.st.Completed && m.st.JobsDone+m.st.JobsAbandoned != m.st.JobsInjected {
			return fmt.Errorf("%s job ledger unbalanced: done %d + abandoned %d != injected %d",
				m.mode, m.st.JobsDone, m.st.JobsAbandoned, m.st.JobsInjected)
		}
	}
	if par.Stats.JobsInjected != one.Stats.JobsInjected {
		return fmt.Errorf("shards=%d injected %d jobs, one shard %d — the arrival stream is placement-independent and must agree",
			k, par.Stats.JobsInjected, one.Stats.JobsInjected)
	}
	return nil
}

// atLeastTwoProcs raises GOMAXPROCS to at least 2 for the rest of the
// test. A sharded run uses min(shards, GOMAXPROCS) runner goroutines,
// so on a one-CPU host a parallel-vs-serial cross-check would otherwise
// compare the serial replay with itself.
func atLeastTwoProcs(t *testing.T) {
	if n := runtime.GOMAXPROCS(0); n < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(n) })
	}
}

// TestShardCrossMatrix certifies the multi-shard runtime on the pinned
// matrix with the real strategies: parallel bit-for-bit against serial
// replay, and conservation against the one-shard run at K=4.
func TestShardCrossMatrix(t *testing.T) {
	atLeastTwoProcs(t)
	for i, c := range shardCrossMatrix() {
		if testing.Short() && i >= 2 {
			break // -short (and the race smoke) certifies the first two cells
		}
		t.Run(c.name, func(t *testing.T) {
			if err := shardCrossCheck(c.spec, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedRunSpec pins the RunSpec plumbing: Shards reaches the
// machine through RunAll (a sharded run still completes and matches
// the one-shard answer).
func TestShardedRunSpec(t *testing.T) {
	spec := RunSpec{Topo: Grid(6), Workload: Fib(10), Strategy: CWN(5, 2), Shards: 3}
	results, err := RunAll([]RunSpec{spec}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if !r.Stats.Completed {
		t.Fatal("sharded run did not complete")
	}
	seq := spec
	seq.Shards = 0
	sr, err := seq.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Result != sr.Stats.Result || r.Stats.Goals != sr.Stats.Goals {
		t.Fatalf("sharded result %d (%d goals) vs one shard %d (%d goals)",
			r.Stats.Result, r.Stats.Goals, sr.Stats.Result, sr.Stats.Goals)
	}
}

// TestShardedIdealRejected pins the SequentialOnly gate end to end: the
// ORACLE (ideal) strategy reads every PE's true load from one timeline.
// At Shards 0 and 1 its single shard owns every PE, so the run completes
// with the tree's answer; a spec naming two or more shards must fail its
// run with the reason, not crash the sweep.
func TestShardedIdealRejected(t *testing.T) {
	for _, shards := range []int{0, 1, 2, 4} {
		spec := RunSpec{Topo: Grid(4), Workload: Fib(8),
			Strategy: StrategySpec{Kind: "ideal"}, Shards: shards}
		r, err := spec.ExecuteErr()
		if shards < 2 {
			if err != nil {
				t.Fatalf("Shards=%d: ideal run failed: %v", shards, err)
			}
			if !r.Stats.Completed || r.Stats.Result != spec.Workload.Build().Eval() {
				t.Fatalf("Shards=%d: ideal run completed=%v result %d", shards, r.Stats.Completed, r.Stats.Result)
			}
			continue
		}
		if err == nil {
			t.Fatalf("Shards=%d: sharded ideal run did not fail", shards)
		}
		if !strings.Contains(err.Error(), "cannot run sharded") || !strings.Contains(err.Error(), "true loads") {
			t.Fatalf("Shards=%d: error %q does not name the SequentialOnly rejection and its reason", shards, err)
		}
	}
}
