package experiments

// BenchCase is one entry of the fixed benchmark matrix the perf ledger
// (BENCH_PR2.json, cmd/bench) and the `go test -bench` suite share. The
// matrix is deliberately pinned — same topologies, workloads, seeds and
// arrival streams every run — so ns/op, allocs/op and events/sec are
// comparable across commits.
type BenchCase struct {
	// Name is the ledger key, stable across PRs.
	Name string
	// Spec is the run the case times, executed once per iteration.
	Spec RunSpec
}

// BenchMatrix returns the pinned closed+open benchmark matrix.
//
// The closed cases time the paper's single-tree experiment on the two
// headline strategies; the open cases push a Poisson job stream through
// the machine — the steady-state regime where per-event and per-message
// allocation costs dominate. "open/poisson-grid8" is the ledger's
// headline case: PR 2's ≥25% allocs/op reduction is measured on it.
func BenchMatrix() []BenchCase {
	return []BenchCase{
		{
			Name: "closed/cwn-grid10-fib13",
			Spec: RunSpec{Topo: Grid(10), Workload: Fib(13), Strategy: CWN(9, 2)},
		},
		{
			Name: "closed/gm-grid10-fib13",
			Spec: RunSpec{Topo: Grid(10), Workload: Fib(13), Strategy: GM(1, 2, 20)},
		},
		{
			Name: "open/poisson-grid8",
			Spec: RunSpec{
				Topo:     Grid(8),
				Workload: Fib(9),
				Strategy: CWN(9, 2),
				Arrival:  PoissonArrivals(60, 500),
				Warmup:   3_000,
			},
		},
		{
			Name: "open/poisson-dlm10",
			Spec: RunSpec{
				Topo:     DLM(10, 5),
				Workload: Fib(9),
				Strategy: CWN(5, 1),
				Arrival:  PoissonArrivals(40, 500),
				Warmup:   2_000,
			},
		},
		{
			Name: "open/burst-grid10-gm",
			Spec: RunSpec{
				Topo:     Grid(10),
				Workload: Fib(9),
				Strategy: GM(1, 2, 20),
				Arrival:  BurstArrivals(25, 2_000, 8),
				Warmup:   2_000,
			},
		},
		{
			// The heap-heavy case (PR 3): 1024 PEs each running a load
			// ticker and a gradient process put thousands of timers in
			// the event heap at all times, with GM's proximity
			// broadcasts layering control traffic on top — the regime
			// where heap pop cost dominates and heap-arity experiments
			// are decided.
			Name: "open/ctrl-grid32-gm",
			Spec: RunSpec{
				Topo:     Grid(32),
				Workload: Fib(9),
				Strategy: GM(1, 2, 20),
				Arrival:  PoissonArrivals(30, 400),
				Warmup:   2_000,
			},
		},
		{
			// Scheduler-heavy case #2 (PR 5): 4096 PEs quadruple the
			// standing timer population of ctrl-grid32-gm — ~8k Timer
			// re-arms per 20 virtual units from load tickers and
			// gradient processes alone. This is the regime the two-tier
			// wheel targets: nearly every event lands within the wheel
			// window, so push/pop are pointer appends instead of
			// percolations through a ~10k-entry heap.
			Name: "open/ctrl-grid64-gm",
			Spec: RunSpec{
				Topo:     Grid(64),
				Workload: Fib(9),
				Strategy: GM(1, 2, 20),
				Arrival:  PoissonArrivals(25, 120),
				Warmup:   1_000,
				MaxTime:  20_000,
			},
		},
		{
			// Scheduler-heavy case #3 (PR 5): a long chaos-driven
			// timeline — 256 PEs under a Poisson stream with random
			// fail/recover cycles for 80k virtual units. Service
			// completions, evacuations and failure-aware re-steering
			// keep Timer stop/re-arm traffic high for the whole
			// horizon, and the chaos script parks far-future events in
			// the scheduler's second tier from construction.
			Name: "open/chaos-grid16-cwn-fa",
			Spec: RunSpec{
				Topo:     Grid(16),
				Workload: Fib(9),
				Strategy: StrategySpec{Kind: "cwn", Radius: 5, Horizon: 2, FailureAware: true},
				Arrival:  PoissonArrivals(40, 1_500),
				Warmup:   2_000,
				MaxTime:  80_000,
				Scenario: "chaos:mtbf=4000:mttr=1000@seed=3",
			},
		},
		{
			// The memory-scale case (PR 9): one million PEs on an
			// implicit torus (auto-promoted past the 65536-PE
			// threshold) under a sustained Poisson stream over a short
			// horizon. Events/sec here is dominated by the per-PE load
			// tickers sweeping the struct-of-arrays hot state; the case
			// exists to pin that a million-PE machine constructs, runs
			// and tears down inside the 2 GB heap budget the arena +
			// SoA layout targets — the footprint section gates it.
			Name: "open/poisson-torus1000",
			Spec: RunSpec{
				Topo:     Torus(1000),
				Workload: Fib(9),
				Strategy: CWN(9, 2),
				Arrival:  PoissonArrivals(20, 15),
				Warmup:   100,
				MaxTime:  300,
			},
		},
		{
			// The sharded fault soak (PR 10): the million-PE torus again,
			// but now with the full fault-tolerance stack live under
			// Shards=4 — correlated block-domain crash strikes, periodic
			// checkpoint ticks, and a bounded retry budget. The horizon is
			// short (the million load tickers dominate wall time, as in
			// poisson-torus1000) but the chaos cadence is compressed to
			// match, so every window of the conservative loop crosses op
			// barriers, crash replays and snapshot walks. Jobs all inject
			// at the root PE, so the 250x250 blocks are sized for strikes
			// to land on the active region (a 62,500-PE correlated
			// blackout) and the seed is pinned to a timeline where the
			// run exercises every ledger column: completions, aborts,
			// checkpoint-resumed retries AND budget-exhausted abandons.
			// The footprint section re-applies PR 9's 2 GiB peak-heap
			// gate to this case: fault-tolerance bookkeeping — and the
			// sentinel-broadcast storm a 62k-PE crash sets off — must not
			// break the memory story.
			Name: "open/chaos-torus1000-sharded-soak",
			Spec: RunSpec{
				Topo:         Torus(1000),
				Workload:     Fib(9),
				Strategy:     StrategySpec{Kind: "cwn", Radius: 9, Horizon: 2, FailureAware: true},
				Arrival:      PoissonArrivals(20, 25),
				Warmup:       100,
				MaxTime:      600,
				Scenario:     "chaos:mtbf=60:mttr=40:crash:domain=block:250x250@seed=7,checkpoint:every=50:cost=1@t=0",
				RetryLimit:   2,
				RetryBackoff: 20,
				Shards:       4,
			},
		},
		{
			// The long-horizon soak (PR 9): 10k PEs under chaos
			// fail/recover cycles for 60k virtual units — enough
			// recycle generations that any arena slot handed out twice,
			// stale SoA index or leaked free-list entry surfaces as a
			// conservation failure or a drifting makespan rather than
			// hiding inside a short run.
			Name: "open/chaos-torus100-soak",
			Spec: RunSpec{
				Topo:     Torus(100),
				Workload: Fib(9),
				Strategy: StrategySpec{Kind: "cwn", Radius: 5, Horizon: 2, FailureAware: true},
				Arrival:  PoissonArrivals(40, 1_200),
				Warmup:   2_000,
				MaxTime:  60_000,
				Scenario: "chaos:mtbf=6000:mttr=1500@seed=7",
			},
		},
	}
}
