// Command bench runs the pinned closed+open benchmark matrix
// (experiments.BenchMatrix) and writes the repository's performance
// ledger — a JSON file recording ns/op, allocs/op, bytes/op and
// events/sec per case, next to the frozen pre-optimization baseline, so
// the perf trajectory is pinned in the tree rather than in someone's
// terminal scrollback.
//
// Regenerate the committed ledger with:
//
//	go run ./cmd/bench -o BENCH_PR12.json
//
// CI runs the fast regression gate on every PR:
//
//	go run ./cmd/bench -short -o -
//
// which trims the matrix to the headline and one scheduler-heavy case,
// still runs the first two shard cross-check cells, the
// observer-overhead A/B, the 262,144-PE footprint gate (construction + a
// short run of an implicit torus512, with a bytes-per-PE budget
// assertion), and the fault-tolerance gates (the
// checkpoint-interval sweep and the multi-shard scenario agreement
// check), and — like the full run — exits non-zero if a parallel
// multi-shard run ever disagrees with its serial replay or breaks
// conservation against one shard, if disabled observability stops being
// free (the off side's allocs/op exceeding the headline measurement), if
// machine construction outgrows its per-PE memory budget, if no
// checkpoint interval beats both no-checkpointing and over-frequent
// checkpointing, or if the bounded-retry ledger stops balancing, so an
// event-ordering, observer-cost, memory-layout or fault-accounting
// regression fails the build, not just a perf number.
//
// Profile a case instead of guessing:
//
//	go run ./cmd/bench -short -cpuprofile cpu.out -memprofile mem.out
//
// Numbers are wall-clock and machine-dependent; allocs/op and bytes/op
// are deterministic per Go version (the simulation itself is a pure
// function of its seeds), which is why allocation reduction is the
// ledger's headline acceptance figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cwnsim/internal/experiments"
	"cwnsim/internal/machine"
	"cwnsim/internal/sim"
	"cwnsim/internal/trace"
)

// metricSet is one measured (or recorded) set of per-op figures.
type metricSet struct {
	NsPerOp      int64   `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec"`
}

type caseResult struct {
	Name        string    `json:"name"`
	Iterations  int       `json:"iterations"`
	EventsPerOp uint64    `json:"events_per_op"`
	Current     metricSet `json:"current"`
	// Baseline is the frozen pre-PR2 measurement for this case (nil for
	// cases added after PR 2).
	Baseline *metricSet `json:"baseline,omitempty"`
	// AllocsReductionPct and SpeedupX compare Current against Baseline.
	AllocsReductionPct float64 `json:"allocs_reduction_pct,omitempty"`
	SpeedupX           float64 `json:"speedup_x,omitempty"`
}

type ledger struct {
	Schema string `json:"schema"`
	PR     int    `json:"pr"`
	Go     string `json:"go"`
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	// CPUs and GOMAXPROCS pin the parallelism the regeneration host
	// actually had: the shard-scaling section only measures real
	// speedups when both exceed the shard counts, and a ledger produced
	// on a 1-CPU container must be readable as protocol-overhead data,
	// not as a parallelism verdict.
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note"`
	Headline   string `json:"headline_case"`
	// Experiments records one-off measured comparisons whose losing
	// side is not in the tree anymore (e.g. the PR 3 heap-arity trial),
	// so the decision stays auditable from the ledger alone.
	Experiments []experimentRecord `json:"experiments,omitempty"`
	// Shard is the PR 6 conservative-lookahead sharding sweep: the
	// largest matrix case run at 2/4/8 shards against the one-shard
	// run, re-measured live on every regeneration.
	Shard *shardScaling `json:"shard_scaling,omitempty"`
	// ShardCross records the shard cross-check gate: every pinned cell
	// certified parallel-vs-serial and against one shard
	// (experiments.ShardCrossCheck). cmd/bench exits non-zero on the
	// first disagreement.
	ShardCross []shardCrossResult `json:"shard_crosscheck,omitempty"`
	// Memory is the PR 9 footprint table: machine construction cost
	// (bytes and allocations per PE) and the run's peak OS-backed heap
	// at four machine sizes spanning the materialized-to-implicit
	// promotion, up to the million-PE torus. Two gates ride on it:
	// the torus512 row's bytes/PE budget (runs in -short, the CI
	// smoke) and the torus1000 row's 2 GB peak-heap ceiling (full
	// regenerations).
	Memory *memFootprint `json:"memory_footprint,omitempty"`
	// Fault is the PR 10 fault-tolerance section: the checkpoint-interval
	// sweep (overhead paid vs work re-lost), the multi-shard scenario
	// agreement gate, the bounded-retry ledger, and — on full
	// regenerations — the sharded million-PE chaos soak with its peak-heap
	// gate. The sweep and agreement gates run in -short (the CI smoke).
	Fault *faultSection `json:"fault_tolerance,omitempty"`
	// Observer is the PR 8 observability-cost A/B: the headline case
	// with the full observer surface (sampling + per-PE monitoring +
	// tracing) off versus on. The off side doubles as a regression
	// gate: it is the headline spec verbatim, so its allocs/op may not
	// exceed the headline measurement — disabled observability costing
	// anything fails the run. Runs in -short too (the CI smoke).
	Observer *observerOverhead `json:"observer_overhead,omitempty"`
	Results  []caseResult      `json:"results"`
}

// memFootprint is the PR 9 memory-footprint section.
type memFootprint struct {
	Rows []memRow `json:"rows"`
	// Gate documents the enforced budgets; a violation exits non-zero.
	Gate     string `json:"gate"`
	Decision string `json:"decision,omitempty"`
}

// memRow is one machine size's footprint measurement: a fresh machine
// is constructed between two MemStats reads (build cost), then run to
// its short horizon (peak heap under traffic).
type memRow struct {
	Case     string `json:"case"`
	PEs      int    `json:"pes"`
	Implicit bool   `json:"implicit_topology"`
	// BuildHeapBytes is the live-heap growth of constructing the
	// machine (HeapAlloc delta across machine.New after a GC fence);
	// BuildBytesPerPE divides it by the machine size.
	BuildHeapBytes   int64   `json:"build_heap_bytes"`
	BuildBytesPerPE  int64   `json:"build_bytes_per_pe"`
	BuildAllocs      int64   `json:"build_allocs"`
	BuildAllocsPerPE float64 `json:"build_allocs_per_pe"`
	// PeakHeapBytes is the OS-backed heap high-water after the run
	// (HeapSys - HeapReleased): what the process actually held from
	// the operating system to build and run this machine.
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	RunEvents     uint64 `json:"run_events"`
}

// memBudgetBytesPerPE and memBudgetAllocsPerPE gate the torus512 row
// (the -short CI smoke): machine construction regressing past these
// budgets fails the build. The PR 9 struct-of-arrays layout measures
// ~1070 bytes/PE and exactly 4 allocations/PE (the load-broadcast
// closure, the ticker-fire and serviceDone method values, and the
// strategy's per-PE node); the budgets carry ~50% headroom so noise
// cannot trip the gate but one accidental per-PE allocation — a map,
// a slice that escaped the flat backings — does.
const (
	memBudgetBytesPerPE  = 1600
	memBudgetAllocsPerPE = 6.0
)

// memPeakBudget is the tentpole ceiling: the million-PE run must fit
// in 2 GB of OS-backed heap.
const memPeakBudget = 2 << 30

// footprintCases returns the footprint table's machine sizes. The
// -short smoke keeps only the 262,144-PE gate row.
func footprintCases(short bool) []memCase {
	all := []memCase{
		{name: "build/torus64", topo: experiments.Torus(64), maxTime: 2_000},
		{name: "build/torus256", topo: experiments.Torus(256), maxTime: 300},
		{name: "build/torus512", topo: experiments.Torus(512), maxTime: 100, allocGate: true},
		{name: "build/torus1000", topo: experiments.Torus(1000), maxTime: 120, peakGate: true},
	}
	if short {
		return all[2:3]
	}
	return all
}

// memCase pins one footprint row's machine size and horizon.
type memCase struct {
	name      string
	topo      experiments.TopoSpec
	maxTime   int64
	allocGate bool // enforce the per-PE construction budgets
	peakGate  bool // enforce the 2 GB peak-heap ceiling
}

// measureFootprint builds and briefly runs one machine size. The
// workload and strategy are fixed (a single fib(9) job under CWN) —
// at these sizes the footprint is the machine itself, not the job.
func measureFootprint(mc memCase) memRow {
	topo := mc.topo.Build()
	tree := experiments.Fib(9).Build()
	strat := experiments.CWN(9, 2).Build()
	cfg := machine.DefaultConfig()
	cfg.MaxTime = sim.Time(mc.maxTime)
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	mach := machine.New(topo, tree, strat, cfg)
	// A GC fence before the build reading: bytes/PE is the machine the
	// run retains, not construction garbage (append-growth copies of
	// the flat adjacency backings).
	runtime.GC()
	runtime.ReadMemStats(&m1)
	st := mach.Run()
	runtime.ReadMemStats(&m2)
	pes := mc.topo.PEs()
	build := int64(m1.HeapAlloc - m0.HeapAlloc)
	allocs := int64(m1.Mallocs - m0.Mallocs)
	return memRow{
		Case:             mc.name,
		PEs:              pes,
		Implicit:         topo.Implicit(),
		BuildHeapBytes:   build,
		BuildBytesPerPE:  build / int64(pes),
		BuildAllocs:      allocs,
		BuildAllocsPerPE: float64(allocs) / float64(pes),
		PeakHeapBytes:    m2.HeapSys - m2.HeapReleased,
		RunEvents:        st.Events,
	}
}

// faultSection is the PR 10 fault-tolerance ledger block.
type faultSection struct {
	Checkpoint *ckptSweep          `json:"checkpoint_sweep,omitempty"`
	Agreement  []scenarioCrossItem `json:"scenario_agreement,omitempty"`
	Retry      *retryLedger        `json:"retry_ledger,omitempty"`
	Soak       *shardedSoak        `json:"sharded_soak,omitempty"`
}

// ckptSweep is the checkpoint-interval tradeoff: the same pinned crash
// workload run with no checkpointing, over-frequent checkpointing, and
// a band of mid intervals. The gate requires some mid interval to
// strictly beat BOTH endpoints on goodput — checkpointing must be
// worth something, and its cost must be real.
type ckptSweep struct {
	Case     string      `json:"case"`
	Scenario string      `json:"base_scenario"`
	Points   []ckptPoint `json:"points"`
	Winner   string      `json:"winner"`
	Gate     string      `json:"gate"`
	Decision string      `json:"decision,omitempty"`
}

// ckptPoint is one checkpoint interval's measurement. Interval 0 means
// no checkpointing; the smallest interval carries an inflated per-tick
// cost (the deliberately over-frequent endpoint).
type ckptPoint struct {
	Interval      int64   `json:"interval"`
	Cost          int64   `json:"cost"`
	Goodput       float64 `json:"goodput"`
	JobsDone      int64   `json:"jobs_done"`
	JobsInjected  int64   `json:"jobs_injected"`
	JobsAbandoned int64   `json:"jobs_abandoned"`
	TotalBusy     int64   `json:"total_busy"`
	Makespan      int64   `json:"makespan"`
}

// scenarioCrossItem is one certified scenario agreement cell.
type scenarioCrossItem struct {
	Case   string `json:"case"`
	Shards int    `json:"shards"`
	OK     bool   `json:"ok"`
}

// retryLedger records the bounded-retry accounting on the agreement
// spec, on one shard and sharded, with the machine-wide invariant
// (retried + abandoned == aborted) re-checked at both.
type retryLedger struct {
	Case      string      `json:"case"`
	OneShard  retryCounts `json:"one_shard"`
	Sharded   retryCounts `json:"sharded"`
	Invariant string      `json:"invariant"`
}

// retryCounts is one mode's job-fate accounting.
type retryCounts struct {
	Injected  int64   `json:"jobs_injected"`
	Done      int64   `json:"jobs_done"`
	Aborted   int64   `json:"jobs_aborted"`
	Retried   int64   `json:"jobs_retried"`
	Abandoned int64   `json:"jobs_abandoned"`
	Goodput   float64 `json:"goodput"`
}

// shardedSoak is the million-PE sharded chaos soak's footprint row:
// the full fault stack (domain crashes, checkpoints, bounded retry)
// under Shards=4 on the implicit torus1000, gated by the same 2 GiB
// peak-heap ceiling as the one-shard million-PE case.
type shardedSoak struct {
	Case          string  `json:"case"`
	Shards        int     `json:"shards"`
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	Events        uint64  `json:"run_events"`
	JobsAborted   int64   `json:"jobs_aborted"`
	JobsRetried   int64   `json:"jobs_retried"`
	JobsAbandoned int64   `json:"jobs_abandoned"`
	Goodput       float64 `json:"goodput"`
	Gate          string  `json:"gate"`
}

// ckptSweepSpec is the pinned crash workload the checkpoint-interval
// sweep reruns per interval: a 16-PE grid under a steady stream, 25%
// of the machine crashing four times with a one-retry budget. Tight
// enough that replay position matters (long intervals re-lose work,
// jobs caught mid-replay by the next crash exhaust their budget) and
// busy enough that per-tick snapshot cost is visible.
func ckptSweepSpec() experiments.RunSpec {
	return experiments.RunSpec{
		Topo:         experiments.Grid(4),
		Workload:     experiments.Fib(11),
		Strategy:     experiments.CWN(9, 2),
		Arrival:      experiments.IntervalArrivals(150, 40),
		Scenario:     "crash:pes=25%@t=1500,recover@t=1700,crash:pes=25%@t=3000,recover@t=3200,crash:pes=25%@t=4500,recover@t=4700,crash:pes=25%@t=6000,recover@t=6200",
		RetryLimit:   1,
		RetryBackoff: 25,
	}
}

// ckptIntervals pins the sweep points: none, the over-frequent endpoint
// (every 20 units at 6 cost — a ~30% service tax), and three mid
// intervals at the scripted cost of 2.
var ckptIntervals = []struct{ every, cost int64 }{
	{0, 0}, {20, 6}, {200, 2}, {300, 2}, {400, 2},
}

// measureCkptSweep runs the sweep and enforces the tradeoff gate.
func measureCkptSweep() (*ckptSweep, error) {
	base := ckptSweepSpec()
	sweep := &ckptSweep{
		Case:     "fault/ckpt-grid4-crash25",
		Scenario: base.Scenario,
		Gate:     "some mid interval strictly beats both interval=0 (no checkpointing) and the over-frequent endpoint on goodput",
	}
	for _, p := range ckptIntervals {
		s := base
		if p.every > 0 {
			s.Scenario = fmt.Sprintf("%s,checkpoint:every=%d:cost=%d@t=0", base.Scenario, p.every, p.cost)
		}
		r, err := s.ExecuteErr()
		if err != nil {
			return nil, fmt.Errorf("interval %d: %w", p.every, err)
		}
		st := r.Stats
		sweep.Points = append(sweep.Points, ckptPoint{
			Interval:      p.every,
			Cost:          p.cost,
			Goodput:       st.Goodput(),
			JobsDone:      st.JobsDone,
			JobsInjected:  st.JobsInjected,
			JobsAbandoned: st.JobsAbandoned,
			TotalBusy:     int64(st.TotalBusy),
			Makespan:      int64(st.Makespan),
		})
	}
	none, overfreq := sweep.Points[0], sweep.Points[1]
	best := -1
	for i, p := range sweep.Points[2:] {
		if p.Goodput > none.Goodput && p.Goodput > overfreq.Goodput {
			if best < 0 || p.Goodput > sweep.Points[2+best].Goodput {
				best = i
			}
		}
	}
	if best < 0 {
		return sweep, fmt.Errorf("no mid interval beat both endpoints: none %.4f, over-frequent %.4f, mids %+v",
			none.Goodput, overfreq.Goodput, sweep.Points[2:])
	}
	win := sweep.Points[2+best]
	sweep.Winner = fmt.Sprintf("every=%d:cost=%d", win.Interval, win.Cost)
	sweep.Decision = fmt.Sprintf(
		"checkpointing pays when its interval matches the crash cadence: every=%d resumes retries near the loss point (goodput %.4f vs %.4f without checkpoints — replay from the root leaves jobs mid-flight when the next strike lands) "+
			"while the over-frequent endpoint (every=%d at cost %d) taxes every live PE's service enough to hold goodput at %.4f; the gate pins that both failure modes stay measurable",
		win.Interval, win.Goodput, none.Goodput, overfreq.Interval, overfreq.Cost, overfreq.Goodput)
	return sweep, nil
}

// agreementSpec is the pinned scripted spec the scenario agreement gate
// certifies across run modes: domain-shaped crash chaos, periodic
// checkpoints and a one-retry budget on a 16-PE grid — every piece of
// the fault stack in one script, small enough for the CI smoke.
func agreementSpec() experiments.RunSpec {
	return experiments.RunSpec{
		Topo:           experiments.Grid(4),
		Workload:       experiments.Fib(9),
		Strategy:       experiments.CWN(9, 2),
		Arrival:        experiments.IntervalArrivals(100, 60),
		Scenario:       "chaos:mtbf=1500:mttr=400:crash:domain=rack:4@seed=11,checkpoint:every=400:cost=1@t=0",
		RetryLimit:     1,
		RetryBackoff:   25,
		SampleInterval: 200,
	}
}

// measureRetryLedger runs the agreement spec on one shard and on k and
// records both runs' job-fate accounting, re-checking the machine-wide
// invariant the acceptance criteria pin.
func measureRetryLedger(spec experiments.RunSpec, name string, k int) (*retryLedger, error) {
	counts := func(shards int) (retryCounts, error) {
		s := spec
		s.Shards = shards
		r, err := s.ExecuteErr()
		if err != nil {
			return retryCounts{}, err
		}
		st := r.Stats
		if st.JobsRetried+st.JobsAbandoned != st.JobsAborted {
			return retryCounts{}, fmt.Errorf("shards=%d retry ledger unbalanced: retried %d + abandoned %d != aborted %d",
				shards, st.JobsRetried, st.JobsAbandoned, st.JobsAborted)
		}
		if st.JobsAbandoned == 0 {
			return retryCounts{}, fmt.Errorf("shards=%d abandoned no jobs — the pinned crash script must exhaust some retry budget", shards)
		}
		return retryCounts{
			Injected:  st.JobsInjected,
			Done:      st.JobsDone,
			Aborted:   st.JobsAborted,
			Retried:   st.JobsRetried,
			Abandoned: st.JobsAbandoned,
			Goodput:   st.Goodput(),
		}, nil
	}
	one, err := counts(1)
	if err != nil {
		return nil, err
	}
	shd, err := counts(k)
	if err != nil {
		return nil, err
	}
	return &retryLedger{
		Case:      name,
		OneShard:  one,
		Sharded:   shd,
		Invariant: "JobsRetried + JobsAbandoned == JobsAborted and JobsAbandoned > 0, machine-wide, on one shard and sharded",
	}, nil
}

// measureShardedSoak runs the million-PE sharded chaos soak once
// between MemStats reads and reports its peak OS-backed heap. It runs
// right after the footprint table (smallest machines first) so the
// process high-water it reads is this machine's own peak.
func measureShardedSoak(spec experiments.RunSpec, name string) (*shardedSoak, error) {
	spec.Topo.Build()
	spec.Workload.Build()
	runtime.GC()
	r, err := spec.ExecuteErr()
	if err != nil {
		return nil, err
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := r.Stats
	return &shardedSoak{
		Case:          name,
		Shards:        spec.Shards,
		PeakHeapBytes: ms.HeapSys - ms.HeapReleased,
		Events:        st.Events,
		JobsAborted:   st.JobsAborted,
		JobsRetried:   st.JobsRetried,
		JobsAbandoned: st.JobsAbandoned,
		Goodput:       st.Goodput(),
		Gate:          "peak OS-backed heap < 2 GiB with the full fault stack live at Shards=4",
	}, nil
}

// observerOverhead is the off-vs-on observability measurement.
type observerOverhead struct {
	Case       string    `json:"case"`
	Iterations int       `json:"iterations_per_side"`
	Off        metricSet `json:"off"`
	On         metricSet `json:"on"`
	// NsOverheadPct and AllocsOverheadPct are the on side's cost over
	// the off side (positive = observing is slower/allocates more).
	NsOverheadPct     float64 `json:"ns_overhead_pct"`
	AllocsOverheadPct float64 `json:"allocs_overhead_pct"`
	Decision          string  `json:"decision,omitempty"`
}

// shardScaling is the PR 6 scaling table: one point per shard count on
// one pinned case, plus the one-shard reference the speedups divide by.
type shardScaling struct {
	Case       string            `json:"case"`
	Iterations int               `json:"iterations_per_point"`
	OneShard   metricSet         `json:"one_shard"`
	Points     []shardScalePoint `json:"points"`
	Decision   string            `json:"decision,omitempty"`
}

// shardScalePoint is one shard count's measurement.
type shardScalePoint struct {
	Shards  int       `json:"shards"`
	Metrics metricSet `json:"metrics"`
	// SpeedupX is one-shard ns/op over this point's ns/op — wall-clock
	// speedup for the same virtual-time horizon.
	SpeedupX float64 `json:"speedup_vs_one_shard_x"`
}

// shardCrossResult is one certified cross-check cell.
type shardCrossResult struct {
	Case   string `json:"case"`
	Shards int    `json:"shards"`
	OK     bool   `json:"ok"`
}

// experimentRecord pins an A/B decision: what was tried, on which
// case, what each side measured and where, and what was kept. Unlike
// the per-case results, these numbers are NOT re-measured when the
// ledger regenerates (the losing side is no longer in the tree);
// MeasuredOn carries their provenance so a ledger produced on other
// hardware does not misattribute them.
type experimentRecord struct {
	Name       string  `json:"name"`
	Case       string  `json:"case"`
	AName      string  `json:"a"`
	AEvtSec    float64 `json:"a_events_per_sec"`
	BName      string  `json:"b"`
	BEvtSec    float64 `json:"b_events_per_sec"`
	Kept       string  `json:"kept"`
	Decision   string  `json:"decision"`
	MeasuredOn string  `json:"measured_on"`
}

// heapExperiment is the PR 3 heap-arity trial. The 4-ary heap lost and
// was removed; the binary heap stays, parameterized (sim/heap.go
// heapArity), as the wheel's overflow tier.
var heapExperiment = experimentRecord{
	Name:       "engine-heap-arity",
	Case:       "open/ctrl-grid32-gm",
	AName:      "binary heap (kept)",
	AEvtSec:    4437829,
	BName:      "4-ary heap",
	BEvtSec:    4200984,
	Kept:       "binary",
	Decision:   "4-ary measured ~5% fewer events/sec: the standing heap is shallow (thousands of events) so halved depth does not repay 3 extra sibling comparisons per down-level; Timer re-arm/removeAt traffic leans on up(), which arity does not help",
	MeasuredOn: "PR 3 reference container, go1.24.0 linux/amd64, 6 interleaved iterations per side (mean events/sec); frozen, not re-measured on regeneration",
}

// schedExperiment is the two-tier-scheduler A/B, re-measured on every
// ledger regeneration until the heap scheduler option was retired: the
// numbers are the BENCH_PR10.json case with the largest margin, and
// the wheel won every case.
var schedExperiment = experimentRecord{
	Name:       "engine-scheduler",
	Case:       "open/ctrl-grid32-gm",
	AName:      "two-tier wheel + overflow heap (kept)",
	AEvtSec:    14142321,
	BName:      "standing binary heap (retired)",
	BEvtSec:    3807259,
	Kept:       "wheel",
	Decision:   "the wheel won every sched-heavy case with identical results: 3.71x on open/ctrl-grid32-gm, 2.90x on open/ctrl-grid64-gm, 2.67x on open/chaos-grid16-cwn-fa; the heap survives only as the wheel's overflow tier",
	MeasuredOn: "BENCH_PR10.json (1 CPU), go1.24.0 linux/amd64, 5 interleaved iterations per side; frozen, not re-measured on regeneration",
}

// poolExperiment is the cross-run free-list pooling A/B (a pool each
// RunAll worker lent its machines), retired once arenas made its
// allocation win moot.
var poolExperiment = experimentRecord{
	Name:       "machine-pool",
	Case:       "open/poisson-grid8",
	AName:      "fresh free lists per run (kept)",
	AEvtSec:    11239487,
	BName:      "cross-run free-list pool (retired)",
	BEvtSec:    10942459,
	Kept:       "fresh",
	Decision:   "BENCH_PR10.json measured pooling at 0.97x time for 46% fewer allocs/op; on the 240-run paper sweep a worker's pool retained a whole run's working set between runs, and dropping it cut peak RSS from 129.7-131.3 MiB to 29.1-29.6 MiB over three alternating rounds with wall time within noise and every pinned digest unchanged",
	MeasuredOn: "BENCH_PR10.json (1 CPU), go1.24.0 linux/amd64, 10 interleaved runs per side; RSS from three alternating paper-sweep rounds on a 2-CPU host; frozen, not re-measured on regeneration",
}

// seekBitmapExperiment is the PR 6 wheel-occupancy-bitmap trial,
// resolved at the profiling stage: the candidate was never built
// because the code it would accelerate is not hot.
var seekBitmapExperiment = experimentRecord{
	Name:    "wheel-occupancy-bitmap",
	Case:    "open/chaos-grid16-cwn-fa",
	AName:   "linear slot stepping (kept)",
	AEvtSec: 11576067,
	BName:   "occupancy bitmap (rejected unbuilt)",
	BEvtSec: 0,
	Kept:    "linear",
	Decision: "profiled 20 back-to-back runs of the chaos case (7.87s CPU samples): wheelSched.seek measured 2.5% flat / 2.7% cumulative, peek 3.4% cumulative — the whole wheel family (push/pop/peek/seek/chain) is ~11%. " +
		"A per-word occupancy bitmap caps the win at seek's 2.5% while taxing every push and pop with bit maintenance, so it cannot pay for itself; empty-slot stepping stays",
	MeasuredOn: "PR 6 reference container (1 CPU), go1.24 linux/amd64, sequential engine; frozen, not re-measured on regeneration",
}

// millionPEProfileExperiment is the PR 9 memory-profile verification of
// the million-PE layout (-memprofile run against the full matrix,
// including open/poisson-torus1000). Recorded here because the numbers
// answer "where do the bytes go at 10^6 PEs" once, from a known tree;
// a regeneration re-measures the footprint table but not this profile.
var millionPEProfileExperiment = experimentRecord{
	Name:    "millionpe-memprofile",
	Case:    "open/poisson-torus1000",
	AName:   "implicit topology + SoA/arena layout (kept)",
	AEvtSec: 1557801,
	BName:   "materialized adjacency (profiled, not rebuilt)",
	BEvtSec: 0,
	Kept:    "implicit+arena",
	Decision: "alloc_space over the full -memprofile matrix run: machine.newMachine 36.8% flat (flat CSR backings, peBlock, SoA slices, arena chunks across every build), topology.ensureRouting 35.6% — the materialized form's all-pairs BFS rows, triggered on the 10,000-PE torus100 soak by chaos-evacuation Dist/NextHop and retaining ~1.0 GB in-use, which the implicit form replaces with closed-form arithmetic (zero bytes on the 1M-PE case); " +
		"implicit CSR append targets (appendImplNeighbors/appendImplChansOf/gridChanMembers) ~6.2% each, wire-message arenas 2.1%, newStats 1.9%, everything else <1.5%. Footprint row for the 1M-PE build: 1070 B/PE, 4.000 allocs/PE, 1414 MiB peak heap — under the 2 GiB gate",
	MeasuredOn: "PR 9 reference container (1 CPU, 128 GB), go1.24.0 linux/amd64, `go run ./cmd/bench -iters 1 -memprofile` over the full matrix; frozen, not re-measured on regeneration",
}

// baseline holds the pre-optimization numbers, recorded at the PR 1
// tree (closure-per-hop transmit, per-event allocation, unpooled goals)
// with `go test -bench BenchmarkLedger -benchtime 3x` on the reference
// container. Frozen here so every future regeneration of the ledger
// keeps reporting the trajectory since the optimization landed.
var baseline = map[string]metricSet{
	"closed/cwn-grid10-fib13": {NsPerOp: 5454257, AllocsPerOp: 40136, BytesPerOp: 1993730, EventsPerSec: 3138117},
	"closed/gm-grid10-fib13":  {NsPerOp: 11274463, AllocsPerOp: 87071, BytesPerOp: 3794413, EventsPerSec: 3408023},
	"open/poisson-grid8":      {NsPerOp: 256607173, AllocsPerOp: 1708389, BytesPerOp: 82558530, EventsPerSec: 2941300},
	"open/poisson-dlm10":      {NsPerOp: 286814602, AllocsPerOp: 1600726, BytesPerOp: 75826389, EventsPerSec: 2437025},
	"open/burst-grid10-gm":    {NsPerOp: 193647355, AllocsPerOp: 1345875, BytesPerOp: 57478608, EventsPerSec: 3102158},
}

func main() {
	var (
		out        = flag.String("o", "BENCH_PR12.json", "ledger output path (- for stdout)")
		iters      = flag.Int("iters", 5, "iterations per case (fixed, for comparable allocs/op)")
		short      = flag.Bool("short", false, "regression smoke: headline + one sched-heavy case, 1 iteration, correctness gates still enforced")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measurement runs to this file")
		memprofile = flag.String("memprofile", "", "write an allocation profile (after the runs) to this file")
	)
	flag.Parse()
	if *iters < 1 {
		fail(fmt.Errorf("-iters must be >= 1, got %d", *iters))
	}
	if *short {
		*iters = 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	matrix := experiments.BenchMatrix()
	if *short {
		matrix = trimMatrix(matrix, "open/poisson-grid8", "open/ctrl-grid32-gm")
	}

	led := ledger{
		Schema:      "cwnsim-bench/v1",
		PR:          12,
		Go:          runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Note:        "one op = one full simulation run of the named spec; baseline frozen before the hot-path optimizations (cases added later carry none)",
		Headline:    "open/poisson-grid8",
		Experiments: []experimentRecord{heapExperiment, schedExperiment, poolExperiment, seekBitmapExperiment, millionPEProfileExperiment},
	}
	// The footprint table runs first, smallest machine to largest, so
	// the process's heap high-water when the torus1000 row reads it is
	// the million-PE machine's own peak, not residue from other
	// sections. Gate violations are layout regressions: exit non-zero.
	{
		mem := &memFootprint{
			Gate: fmt.Sprintf("torus512 build <= %d bytes/PE and <= %.2f allocs/PE; torus1000 peak heap < 2 GiB", memBudgetBytesPerPE, memBudgetAllocsPerPE),
			Decision: "machine hot state is struct-of-arrays (flat busy/failed/serviceEnd/busyTime slices), adjacency is CSR subslices of shared flat backings, " +
				"channels are a value slice, and goals/messages/pending/jobs/events carve from chunk arenas — so per-PE cost is flat array bytes, not object headers, " +
				"and machines past 65536 PEs promote to implicit (computed-neighbor) topologies with no stored edge lists",
		}
		for _, mc := range footprintCases(*short) {
			row := measureFootprint(mc)
			mem.Rows = append(mem.Rows, row)
			fmt.Fprintf(os.Stderr, "%-28s %8d PEs  %5d B/PE  %.3f allocs/PE  peak %6.1f MiB  (implicit=%v)\n",
				"mem:"+row.Case, row.PEs, row.BuildBytesPerPE, row.BuildAllocsPerPE, float64(row.PeakHeapBytes)/(1<<20), row.Implicit)
			if mc.allocGate && (row.BuildBytesPerPE > memBudgetBytesPerPE || row.BuildAllocsPerPE > memBudgetAllocsPerPE) {
				fail(fmt.Errorf("memory gate: %s built at %d bytes/PE, %.3f allocs/PE (budget %d B/PE, %.2f allocs/PE) — machine construction regressed",
					row.Case, row.BuildBytesPerPE, row.BuildAllocsPerPE, memBudgetBytesPerPE, memBudgetAllocsPerPE))
			}
			if mc.peakGate && row.PeakHeapBytes >= memPeakBudget {
				fail(fmt.Errorf("memory gate: %s peaked at %.1f MiB heap — the million-PE machine must fit in 2 GiB",
					row.Case, float64(row.PeakHeapBytes)/(1<<20)))
			}
		}
		led.Memory = mem
	}

	// The fault-tolerance section. The sharded million-PE soak runs
	// immediately after the footprint table (same smallest-to-largest
	// discipline: the heap high-water it reads must be its own machine's
	// peak, not a later case's); the checkpoint-interval sweep and the
	// scenario agreement gate are small pinned specs that run in -short
	// too — they are CI's fault-accounting smoke.
	{
		fault := &faultSection{}
		if !*short {
			const soakCase = "open/chaos-torus1000-sharded-soak"
			spec, ok := findCase(experiments.BenchMatrix(), soakCase)
			if !ok {
				fail(fmt.Errorf("sharded soak case %s not in BenchMatrix", soakCase))
			}
			soak, err := measureShardedSoak(spec, soakCase)
			if err != nil {
				fail(fmt.Errorf("sharded soak: %v", err))
			}
			fault.Soak = soak
			fmt.Fprintf(os.Stderr, "%-28s %d shards  peak %6.1f MiB  aborted=%d retried=%d abandoned=%d goodput=%.3f\n",
				"soak:"+soakCase, soak.Shards, float64(soak.PeakHeapBytes)/(1<<20),
				soak.JobsAborted, soak.JobsRetried, soak.JobsAbandoned, soak.Goodput)
			if soak.PeakHeapBytes >= memPeakBudget {
				fail(fmt.Errorf("memory gate: %s peaked at %.1f MiB heap — the sharded million-PE fault stack must fit in 2 GiB",
					soakCase, float64(soak.PeakHeapBytes)/(1<<20)))
			}
		}

		sweep, err := measureCkptSweep()
		if err != nil {
			fail(fmt.Errorf("checkpoint sweep gate: %v", err))
		}
		fault.Checkpoint = sweep
		for _, p := range sweep.Points {
			fmt.Fprintf(os.Stderr, "%-28s every=%-4d cost=%d  goodput=%.4f  done=%d/%d  busy=%d\n",
				"ckpt:"+sweep.Case, p.Interval, p.Cost, p.Goodput, p.JobsDone, p.JobsInjected, p.TotalBusy)
		}
		fmt.Fprintf(os.Stderr, "%-28s winner %s\n", "ckpt:"+sweep.Case, sweep.Winner)

		const agreeCase = "fault/agree-grid4-chaos-rack"
		if err := experiments.ScenarioCrossCheck(agreementSpec(), 4); err != nil {
			fail(fmt.Errorf("scenario agreement gate %s: one-shard and sharded runs DISAGREE:\n%v", agreeCase, err))
		}
		fault.Agreement = append(fault.Agreement, scenarioCrossItem{Case: agreeCase, Shards: 4, OK: true})
		fmt.Fprintf(os.Stderr, "%-28s certified (parallel == serial, retry ledger balanced at k=1 and k=4)\n", "scenck:"+agreeCase)

		rl, err := measureRetryLedger(agreementSpec(), agreeCase, 4)
		if err != nil {
			fail(fmt.Errorf("retry ledger gate: %v", err))
		}
		fault.Retry = rl
		fmt.Fprintf(os.Stderr, "%-28s shards=1 %d/%d done, %d abandoned (goodput %.3f) | shards=4 %d/%d done, %d abandoned (goodput %.3f)\n",
			"retry:"+agreeCase, rl.OneShard.Done, rl.OneShard.Injected, rl.OneShard.Abandoned, rl.OneShard.Goodput,
			rl.Sharded.Done, rl.Sharded.Injected, rl.Sharded.Abandoned, rl.Sharded.Goodput)
		led.Fault = fault
	}

	// The two giant matrix cases take tens of seconds per op; capping
	// their iteration count keeps full regenerations tractable without
	// touching the comparability of the long-standing cases. Each
	// result records the count it actually ran.
	iterCap := map[string]int{
		"open/poisson-torus1000":            2,
		"open/chaos-torus100-soak":          2,
		"open/chaos-torus1000-sharded-soak": 1,
	}
	for _, c := range matrix {
		// Warm registry caches so construction of shared immutables is
		// not billed to the first iteration.
		c.Spec.Topo.Build()
		c.Spec.Workload.Build()

		n := *iters
		if cap, ok := iterCap[c.Name]; ok && n > cap {
			n = cap
		}
		res, err := measure(c.Spec, n)
		if err != nil {
			fail(fmt.Errorf("case %s: %v", c.Name, err))
		}
		res.Name = c.Name
		if base, ok := baseline[c.Name]; ok {
			b := base
			res.Baseline = &b
			if b.AllocsPerOp > 0 {
				res.AllocsReductionPct = 100 * (1 - float64(res.Current.AllocsPerOp)/float64(b.AllocsPerOp))
			}
			if res.Current.NsPerOp > 0 {
				res.SpeedupX = float64(b.NsPerOp) / float64(res.Current.NsPerOp)
			}
		}
		led.Results = append(led.Results, res)
		fmt.Fprintf(os.Stderr, "%-28s %12d ns/op %10d allocs/op %12.0f events/sec", c.Name,
			res.Current.NsPerOp, res.Current.AllocsPerOp, res.Current.EventsPerSec)
		if res.Baseline != nil {
			fmt.Fprintf(os.Stderr, "   allocs %+.1f%%, %.2fx faster", -res.AllocsReductionPct, res.SpeedupX)
		}
		fmt.Fprintln(os.Stderr)
	}

	// The shard cross-check gate: certify the multi-shard agreement
	// contract on the pinned matrix. A disagreement is a correctness
	// failure — exit non-zero.
	crossCases := experiments.ShardCrossMatrix()
	if *short {
		crossCases = crossCases[:2]
	}
	for _, c := range crossCases {
		if err := experiments.ShardCrossCheck(c.Spec, 4); err != nil {
			fail(fmt.Errorf("shard cross-check %s: one-shard and sharded runs DISAGREE:\n%v", c.Name, err))
		}
		led.ShardCross = append(led.ShardCross, shardCrossResult{Case: c.Name, Shards: 4, OK: true})
		fmt.Fprintf(os.Stderr, "%-28s certified (parallel == serial, conservation vs one shard at k=4)\n", "shardck:"+c.Name)
	}

	// The shard scaling sweep: the 4096-PE control-heavy case at each
	// shard count against the one-shard run.
	if !*short {
		const scaleCase = "open/ctrl-grid64-gm"
		spec, ok := findCase(experiments.BenchMatrix(), scaleCase)
		if !ok {
			fail(fmt.Errorf("shard scaling case %s not in BenchMatrix", scaleCase))
		}
		sc, err := measureShardScaling(spec, scaleCase, *iters)
		if err != nil {
			fail(fmt.Errorf("shard scaling: %v", err))
		}
		sc.Decision = fmt.Sprintf(
			"this regeneration ran on %d CPU(s); with fewer cores than shards the sweep measures PROTOCOL OVERHEAD rather than parallelism. "+
				"PR 6 reference finding, re-confirmed unchanged by the PR 8 regeneration (both 1-CPU containers): K=4 fully serialized onto one core ran at parity with the sequential engine — "+
				"the window/barrier/drain machinery costs ~0%% even at lookahead 1 (CtrlHopTime bounds the min cross-shard latency, so this case runs ~MaxTime windows, the worst case) — "+
				"which is the precondition for wall-clock scaling on a multicore host. The table re-measures live on every regeneration; regenerate on an N-core machine to pin real speedups",
			runtime.NumCPU())
		led.Shard = &sc
		for _, p := range sc.Points {
			fmt.Fprintf(os.Stderr, "%-28s %d shards %12.0f events/sec  %.2fx vs one shard\n",
				"shard:"+scaleCase, p.Shards, p.Metrics.EventsPerSec, p.SpeedupX)
		}
	}

	// The observer A/B and its gate: the headline case with observability
	// off versus on, interleaved. Runs in -short too — this is the CI
	// smoke's observability gate: the off side is the headline spec
	// verbatim, so its allocs/op must match the headline measurement;
	// drift means disabled observability started costing something.
	{
		spec, ok := findCase(matrix, led.Headline)
		if !ok {
			fail(fmt.Errorf("headline case %s not in BenchMatrix", led.Headline))
		}
		ob, err := measureObserver(spec, led.Headline, *iters)
		if err != nil {
			fail(fmt.Errorf("observer A/B: %v", err))
		}
		// The gate is one-sided: the headline runs cold (the process's
		// first measurement absorbs one-time runtime warm-up allocs) so
		// the warm off side legitimately measures at or below it — but
		// an off side ABOVE the headline means the disabled-observability
		// fast paths started allocating (e.g. per-event work ahead of the
		// nil-sink check), which would exceed it by orders of magnitude.
		var drift float64
		for _, res := range led.Results {
			if res.Name == led.Headline && res.Current.AllocsPerOp > 0 {
				drift = 100 * (float64(ob.Off.AllocsPerOp) - float64(res.Current.AllocsPerOp)) / float64(res.Current.AllocsPerOp)
			}
		}
		if drift > 1 {
			fail(fmt.Errorf("observer gate: observability-off allocs/op (%d) exceeds the headline measurement by %+.2f%% — disabled observability must be free", ob.Off.AllocsPerOp, drift))
		}
		ob.Decision = fmt.Sprintf(
			"observability is pay-for-what-you-configure: the off side is the headline spec verbatim and its allocs/op held at or below the headline measurement (drift %+.2f%% this run; the gate fails above +1%%) — "+
				"the emit/sample fast paths are nil-sink/zero-interval branches with no allocation. The on side prices the full surface at once (SampleInterval=500 windowed sampling, per-PE monitor frames, a counting trace sink); "+
				"its cost scales with sink retention — a Collector or Spans sink pays for event storage on top of this figure",
			drift)
		led.Observer = &ob
		fmt.Fprintf(os.Stderr, "%-28s off %12d ns/op %10d allocs/op | on %+.1f%% ns/op, %+.1f%% allocs/op (off-vs-headline drift %+.2f%%)\n",
			"observer:"+ob.Case, ob.Off.NsPerOp, ob.Off.AllocsPerOp, ob.NsOverheadPct, ob.AllocsOverheadPct, drift)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		fail(err)
		runtime.GC()
		fail(pprof.WriteHeapProfile(f))
		fail(f.Close())
	}

	enc, err := json.MarshalIndent(led, "", "  ")
	fail(err)
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
		fail(err)
		return
	}
	fail(os.WriteFile(*out, enc, 0o644))
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// trimMatrix keeps only the named cases, in matrix order.
func trimMatrix(matrix []experiments.BenchCase, names ...string) []experiments.BenchCase {
	keep := map[string]bool{}
	for _, n := range names {
		keep[n] = true
	}
	var out []experiments.BenchCase
	for _, c := range matrix {
		if keep[c.Name] {
			out = append(out, c)
		}
	}
	return out
}

// findCase returns the named case's spec.
func findCase(matrix []experiments.BenchCase, name string) (experiments.RunSpec, bool) {
	for _, c := range matrix {
		if c.Name == name {
			return c.Spec, true
		}
	}
	return experiments.RunSpec{}, false
}

// measure runs the spec iters times and reports per-op means. Mallocs
// and bytes come from runtime.MemStats deltas (the same counters
// testing.B uses); a GC fence before the window keeps prior garbage out
// of the byte count.
func measure(spec experiments.RunSpec, iters int) (caseResult, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var events uint64
	for i := 0; i < iters; i++ {
		r, err := spec.ExecuteErr()
		if err != nil {
			return caseResult{}, err
		}
		events = r.Stats.Events
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := uint64(iters)
	return caseResult{
		Iterations:  iters,
		EventsPerOp: events,
		Current: metricSet{
			NsPerOp:      elapsed.Nanoseconds() / int64(iters),
			AllocsPerOp:  int64((after.Mallocs - before.Mallocs) / n),
			BytesPerOp:   int64((after.TotalAlloc - before.TotalAlloc) / n),
			EventsPerSec: float64(events) * float64(iters) / elapsed.Seconds(),
		},
	}, nil
}

// measureShardScaling times the spec at 1/2/4/8 shards (clamped points
// beyond the machine size would be redundant; the case is 4096 PEs so
// all counts are real). Iterations interleave the shard counts so clock
// drift cannot favor one.
func measureShardScaling(spec experiments.RunSpec, name string, iters int) (shardScaling, error) {
	spec.Topo.Build()
	spec.Workload.Build()
	counts := []int{1, 2, 4, 8}
	elapsed := make([]time.Duration, len(counts))
	allocs := make([]uint64, len(counts))
	bytes := make([]uint64, len(counts))
	events := make([]uint64, len(counts))
	for i := 0; i < iters; i++ {
		for ci, shards := range counts {
			s := spec
			s.Shards = shards
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			r, err := s.ExecuteErr()
			if err != nil {
				return shardScaling{}, fmt.Errorf("shards=%d: %w", shards, err)
			}
			elapsed[ci] += time.Since(start)
			runtime.ReadMemStats(&after)
			allocs[ci] += after.Mallocs - before.Mallocs
			bytes[ci] += after.TotalAlloc - before.TotalAlloc
			events[ci] = r.Stats.Events
		}
	}
	n := uint64(iters)
	mk := func(ci int) metricSet {
		return metricSet{
			NsPerOp:      elapsed[ci].Nanoseconds() / int64(iters),
			AllocsPerOp:  int64(allocs[ci] / n),
			BytesPerOp:   int64(bytes[ci] / n),
			EventsPerSec: float64(events[ci]) * float64(iters) / elapsed[ci].Seconds(),
		}
	}
	sc := shardScaling{Case: name, Iterations: iters, OneShard: mk(0)}
	for ci, shards := range counts[1:] {
		p := shardScalePoint{Shards: shards, Metrics: mk(ci + 1)}
		if p.Metrics.NsPerOp > 0 {
			p.SpeedupX = float64(sc.OneShard.NsPerOp) / float64(p.Metrics.NsPerOp)
		}
		sc.Points = append(sc.Points, p)
	}
	return sc, nil
}

// measureObserver runs the spec iters times per side — observability
// off (the spec verbatim) versus on (windowed sampling, per-PE monitor
// frames and a counting trace sink) — interleaved so clock drift cannot
// favor one, and reports both per-op metric sets plus the on side's
// overhead. The sink is fresh per run: sinks must not be shared across
// runs, and a persistent one would bill warm-up to the first iteration.
func measureObserver(spec experiments.RunSpec, name string, iters int) (observerOverhead, error) {
	spec.Topo.Build()
	spec.Workload.Build()
	on := spec
	on.SampleInterval = 500
	on.MonitorPE = true
	sides := [2]experiments.RunSpec{spec, on}
	var elapsed [2]time.Duration
	var allocs, bytes [2]uint64
	var events [2]uint64
	for i := 0; i < iters; i++ {
		for side := range sides {
			s := sides[side]
			if side == 1 {
				s.Trace = &trace.Counter{}
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			r, err := s.ExecuteErr()
			if err != nil {
				return observerOverhead{}, err
			}
			elapsed[side] += time.Since(start)
			runtime.ReadMemStats(&after)
			allocs[side] += after.Mallocs - before.Mallocs
			bytes[side] += after.TotalAlloc - before.TotalAlloc
			events[side] = r.Stats.Events
		}
	}
	n := uint64(iters)
	mk := func(side int) metricSet {
		return metricSet{
			NsPerOp:      elapsed[side].Nanoseconds() / int64(iters),
			AllocsPerOp:  int64(allocs[side] / n),
			BytesPerOp:   int64(bytes[side] / n),
			EventsPerSec: float64(events[side]) * float64(iters) / elapsed[side].Seconds(),
		}
	}
	ob := observerOverhead{Case: name, Iterations: iters, Off: mk(0), On: mk(1)}
	if ob.Off.NsPerOp > 0 {
		ob.NsOverheadPct = 100 * (float64(ob.On.NsPerOp)/float64(ob.Off.NsPerOp) - 1)
	}
	if ob.Off.AllocsPerOp > 0 {
		ob.AllocsOverheadPct = 100 * (float64(ob.On.AllocsPerOp)/float64(ob.Off.AllocsPerOp) - 1)
	}
	return ob, nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
}
