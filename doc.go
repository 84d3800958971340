// Package cwnsim is a from-scratch Go reproduction of L.V. Kale,
// "Comparing the Performance of Two Dynamic Load Distribution Methods"
// (ICPP 1988 / UIUCDCS-R-87-1387) — a discrete-event simulation study
// of two distributed load-balancing schemes, Contracting Within a
// Neighborhood (CWN) and Lin & Keller's Gradient Model (GM) — grown
// into an open-system serving benchmark for dynamic load balancers on
// message-passing multiprocessors.
//
// Two run lifecycles share one machine model:
//
//   - Closed system (the paper): one tree-structured computation is
//     injected at time zero and the machine drains; the figure of merit
//     is makespan/speedup. machine.New builds these runs.
//   - Open system (the extension): a machine.JobSource injects a stream
//     of root goals over virtual time — fixed-interval, Poisson, or
//     bursty arrivals — and every job's sojourn time (injection to root
//     response) is recorded; the figures of merit are mean/p50/p99
//     latency, throughput, and steady-state utilization with warm-up
//     exclusion. machine.NewStream builds these runs, and the single
//     job is just the trivial stream, so paper results are preserved
//     bit for bit.
//
// Either lifecycle can run through a scripted dynamic environment
// (internal/scenario): a deterministic timeline of PE slowdowns,
// compute blackouts with evacuation/requeue semantics, link
// degradation and outages, and arrival-rate shocks, with recovery
// metrics — time to restore steady p99, queue-imbalance curves,
// requeued-goal counts — reported per run. An empty scenario is free:
// unscripted runs stay bit-for-bit identical.
//
// The library layers, bottom-up:
//
//	internal/sim         deterministic discrete-event engine (ORACLE's kernel)
//	internal/topology    grids, tori, double-lattice-meshes, hypercubes, ...
//	internal/workload    fib/dc/random task trees (the simulated programs)
//	internal/scenario    scripted perturbation timelines + recovery analysis
//	internal/machine     PEs, channels with contention, job streams, routing
//	internal/core        CWN, GM, ACWN, and baseline strategies
//	internal/metrics     histograms, summaries, exact-percentile samples
//	internal/report      text tables, ASCII charts, heat maps, CSV
//	internal/experiments declarative run specs and the paper's suites
//
// The experiments layer names topologies, workloads, strategies and
// arrival processes by kind in a RunSpec. One validator,
// RunSpec.Validate, decides whether a spec can run; the CLI parsers,
// JSON spec files and every sweep apply it before building anything, so
// a bad spec fails with an error where it enters.
//
// # Determinism
//
// A run is a pure function of its seed. Three disjoint seeded streams
// keep that guarantee modular: the engine stream drives every choice
// inside the simulated system (tie-breaks, simulation ticker phases),
// the source stream drives job arrival times, and the observer stream
// drives sampling phases — so neither changing the workload stream nor
// turning monitoring on or off perturbs the simulated result. The seed
// regression tests in internal/experiments pin this bit for bit.
//
// # Performance
//
// The hot path allocates nothing in steady state: the scheduler holds
// every event by value in reused chunks and dispatches it through a
// typed action instead of a closure (internal/sim); wire messages,
// goals, pending tasks and job states are recycled through free lists,
// each PE's ready queue is a ring buffer, and the load-word path —
// most of a run's events — batches one broadcast's same-instant words
// into one entry and reads dense per-PE and per-channel arrays
// (internal/machine). For unbounded job streams, Config.SojournBound
// collapses latency samples into a fixed-memory streaming histogram.
// The repository benchmark is perfbench (`bash perfbench/run.sh`): four
// named workloads measured in cold passes, with wall time, events/sec,
// setup time and peak RSS end to end, per-layer attribution, and every
// run's results checked against pinned digests. The BENCH_PR*.json
// files are the earlier per-PR ledgers, kept as history.
//
// Executables: cmd/lbsim (single runs), cmd/paper (regenerate every
// table and figure), cmd/optimize (the Table 1 parameter sweeps),
// cmd/sweep (ad-hoc batches), cmd/validate (the paper's claims as
// checks), and cmd/serve (arrival-rate versus tail-latency sweeps for
// the open system). The two batch commands, sweep and serve, take their
// shared run flags (-scenario, -sample, -retry-limit, -retry-backoff,
// -trace-out, -workers, -csv) from one experiments.RunFlags, and every
// table reads its metrics from the run's machine.Stats, which
// experiments.Result embeds. A bad flag exits 2 with one line on
// stderr before anything prints. cli_test.go builds the six commands
// and pins their output against testdata/cli (rewrite the goldens with
// go test -run TestCLI -update-cli-golden). The benchmarks in
// bench_test.go regenerate each table/figure at reduced scale and
// report achieved speedup/utilization as custom benchmark metrics;
// BenchmarkScale runs the memory-scale specs and fails if a million-PE
// machine outgrows its 2 GiB heap.
package cwnsim
