// Command perfbench is the simulator's benchmark: four named workloads,
// each measured as a set of cold passes, with end-to-end metrics a user
// of the simulator sees, per-layer metrics that say which layer moved,
// and digests that check the simulated results did not change.
//
// # Running it
//
// perfbench is a module of its own that builds the simulator from the
// enclosing checkout (a replace directive points at ..). From the root
// of a checkout:
//
//	bash perfbench/run.sh run [-workload W] [-seed S] [-passes N] [-seconds T] [-trace 0|1] [-out DIR]
//	bash perfbench/run.sh compare A/results.json B/results.json
//
// run.sh builds the binary into .bench_build/ and keeps the Go build
// cache, temporary files and results there too; `go run . run ...`
// inside perfbench/ works as well. The form
//
//	bash perfbench/run.sh --workload W --seed S --seconds T --trace 0|1
//
// is the fixed-length run BENCHMARK.json describes; its last line is one
// JSON object with the end-to-end metrics (-trace 0) or the per-layer
// metrics (-trace 1).
//
// For each workload, run executes passes one after another: N of them,
// by default the workload's suggested count (15, 20, 15 and 8 below),
// or at least 3 and as many as fit in T seconds with -seconds. Each pass
// is a fresh child process — the binary re-executes itself — so every
// sample is one cold user invocation with its own heap and its own peak
// RSS. run is a closed loop: one child runs at a time and no
// child has more than 2 threads (GOMAXPROCS is min(nproc, 2)). A set of
// all four workloads at the suggested counts, traced, takes about 90
// seconds on a 2-CPU host. run prints every metric as "workload metric
// value unit" with the median, quartiles and number of passes, and
// writes DIR/results.json (default .bench_build/results). results.json
// stamps nproc and the passes' GOMAXPROCS: these numbers come from a
// 2-CPU host, while the BENCH_PR*.json ledgers of cmd/bench came from
// 1-CPU containers, so the two are not comparable.
//
// compare prints, for each workload and end-to-end metric of two
// results.json files, both medians and quartiles, the change, and a
// verdict: "unresolved" when either set's interquartile range exceeds
// the metric's bound, otherwise "worse", "better" or "same" as the
// medians differ by more than the bound or not. It exits 1 when any pair
// is worse. Two sets on one commit should read "same" throughout.
//
// # Workloads
//
// The specs are literals in workloads.go, not experiments.BenchMatrix, so
// an edit to internal/experiments cannot change what is measured. -seed
// sets every RunSpec.Seed and the @seed= of fault-shard's chaos; the
// default, 1, is a seed at which fault-shard aborts, retries and
// abandons jobs. The three stream workloads end every run at a fixed
// virtual-time horizon (MaxTime) with jobs still in flight: their load
// tickers do most of the work, so a fixed horizon fixes the work, where
// a run that waits for its last job would grow or shrink with the seed.
//
//   - paper-sweep: the 240-run Table 2 suite (dc and fib at the paper's
//     six sizes, on five grids and five double-lattice meshes, under the
//     paper's CWN and GM) through experiments.RunAll with 2 workers. Users
//     regenerate this table, and in short closed runs construction,
//     machine.Pool reuse and RunAll scheduling outweigh the engine's
//     steady state. A test pins the generation to
//     experiments.SpeedupSuite(false).
//   - stream-cwn: an 8×8 grid running fib(9) under CWN(9,2), Poisson
//     arrivals with mean gap 60 up to the horizon 120000 (about 2000
//     jobs), warm-up 3000. The steady-state goal path — engine, goal and
//     response handlers, the CWN walk, sojourn records — with negligible
//     set-up and no control traffic.
//   - ctrl-gm: a 32×32 grid running fib(9) under GM(1,2,20), 400 jobs
//     with Poisson mean gap 30, warm-up 2000, horizon 40000 (GM is still
//     draining the backlog there). 1024 load tickers and gradient
//     processes keep it busy with timer re-arms and control messages: the
//     machine layer of stream-cwn through another path, so a goal-path
//     gain that taxes timers shows here.
//   - fault-shard: a materialized 64×64 torus running fib(9) under
//     failure-aware CWN(5,2), Poisson arrivals with mean gap 40 up to the
//     horizon 15000, crash chaos on 32×32 blocks with checkpoints every
//     300, RetryLimit 2, RetryBackoff 20, 2 shards. The only workload
//     with scenario expansion, crash/checkpoint/retry, the shard window
//     protocol, and the lazily built all-pairs routing (128 MiB of its
//     156 MiB peak RSS, built on the first Dist call).
//
// # End-to-end metrics
//
// Every workload reports these, measured with tracing off, one sample
// per pass; the reported value is the median over passes.
//
//   - wall_s: seconds of a pass's set-up and run (paper-sweep: the RunAll
//     sweep). Bound 24%.
//   - events_per_s: simulated events per second of simulation, summed
//     over the pass. Bound 24%.
//   - setup_s: seconds building the topology, tree and strategy and
//     calling machine.NewStream, cold (paper-sweep: a construction-only
//     pass over its 240 specs before the sweep). Bound 25%, the widest:
//     cold builds are bound by page faults.
//   - peak_rss_mib: VmHWM of the pass's process. Bound 6%.
//
// Times are in reference seconds. The shared 2-CPU host these numbers
// come from changes speed by tens of percent over minutes, which no
// number of passes averages away. So the parent process runs a fixed
// calibration workload (calibrate.go: hashing, sorting, random memory
// traffic and a small discrete-event loop, sharing no code with the
// simulator) after every pass, and scales host seconds by 0.125 s over
// the set's median calibration time — 0.125 s being what the
// calibration takes on that host when it is quiet. Over ten 25-second
// sets per workload at ten seeds, the interquartile range of the scaled
// medians was 4-12% of their median, where the raw medians' was 7-65%
// (the host ran up to twice as slow for minutes at a time); the timing
// bounds are twice the widest scaled spread, the RSS bound three times
// its widest. results.json keeps the host values ("raw"), the
// calibration times and the scale ("host_scale").
//
// Correctness is reported as failed runs out of attempted runs
// (error_rate in results.json; "failed" and "attempted" in the JSON
// line). A run fails if it returns an error; if an invariant breaks
// (closed runs complete with Result == tree.Eval() and Goals ==
// tree.Count(); JobsRetried + JobsAbandoned == JobsAborted; JobsDone +
// JobsAbandoned <= JobsInjected); if its digest differs from the other
// passes at the same seed; or, at the default seed, if it differs from
// testdata/digests.json. Once per set, a sharded workload is replayed
// with ShardSerial and must give the same digests. The digest hashes
// Events, Makespan, Result, JobsDone, the aborted/retried/abandoned
// counts, MsgCounts and the steady sojourn p50 and p99: a change that
// only speeds the simulator up leaves all of them unchanged. After a
// change meant to alter results, run `go test -run TestPinnedDigests
// -update-digests` in perfbench/.
//
// # Per-layer metrics
//
// All are measured from outside the program. Every pass records the
// runtime/metrics deltas (gc.*) and Stats counts (sim.events,
// machine.msgs_*, ...). With -trace 1 a set adds one traced pass — a CPU
// profile folded into self time per internal package (GC frames count
// as gc, other runtime frames as runtime, other standard-library code as
// its calling layer), a trace.Counter sink, and spans around the
// benchmark's own calls — and a process running the microbenchmarks
// (each the median of 21 repetitions). Which end-to-end metric each
// layer should move, and on which workload (and where it should move
// little):
//
//	layer        metrics                                          moves
//	sim          self_share events push_pop_ns                    events_per_s on ctrl-gm;
//	             overflow_push_pop_ns timer_rearm_ns              little on paper-sweep
//	machine      self_share new_ns_per_pe new_allocs_per_pe       events_per_s on stream-cwn;
//	             msgs_goal msgs_resp msgs_load msgs_ctrl          setup_s on paper-sweep;
//	             max_channel_util goodput goals_lost              wall_s on fault-shard
//	             jobs_retried shard_cpu_util
//	core         self_share goal_hops_mean goals_forwarded        events_per_s on stream-cwn (CWN)
//	             newnode_ns                                       and ctrl-gm (GM); little on paper-sweep
//	topology     self_share build_ms_torus100                     peak_rss_mib and wall_s on fault-shard;
//	             build_ms_torus1000_implicit routing_first_s      none on stream-cwn
//	             routing_mib neighbors_ns
//	workload     self_share fib_build_ns_per_goal                 setup_s on paper-sweep
//	metrics      self_share sample_add_ns sample_add_bounded_ns   events_per_s on stream-cwn (small)
//	             hist_add_ns percentile_us
//	scenario     self_share parse_us expand_ms                    setup_s on fault-shard only
//	trace        self_share overhead_pct goal_created ...         none: untraced numbers must not move
//	             resp_delivered
//	experiments  self_share runall_util                           wall_s on paper-sweep
//	gc, runtime  gc.self_share gc.cpu_s gc.cycles gc.alloc_mib    wall_s on fault-shard and paper-sweep;
//	             gc.alloc_objects runtime.self_share              peak_rss_mib on fault-shard
//
// machine.shard_cpu_util is user CPU seconds over pass wall time times
// the threads the workload can use (its shards, or RunAll's workers);
// its complement is time waiting at barriers or for work.
// experiments.runall_util is the summed Result.Wall over sweep wall time
// times workers (for one-run workloads, run time over pass time).
// trace.overhead_pct is the traced pass's host wall time over the
// untraced median, minus one. topology.routing_first_s and routing_mib
// are the first Dist call on fault-shard's 64×64 torus.
//
// # Traced-pass artifacts
//
// A -trace 1 set leaves, per workload, in the -out directory:
//
//   - W.cpu.pprof: the traced pass's CPU profile, sampled at up to
//     500 Hz (the kernel's timer may deliver fewer samples).
//     Read it with `go tool pprof -top .bench_build/perfbench W.cpu.pprof`.
//     The runtime warns once on standard error that the rate was set
//     before the profile started; that is expected.
//   - W.spans.json: Chrome trace-event JSON of the benchmark's calls
//     (TopoSpec.Build, WorkloadSpec.Build, StrategySpec.Build,
//     machine.NewStream, Machine.Run or experiments.RunAll, and the
//     checks); open it in Perfetto or chrome://tracing.
//   - results.json: every sample of every end-to-end metric, and the
//     per-layer metrics with their units.
package main
