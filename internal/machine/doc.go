// Package machine is the multiprocessor model — the Go equivalent of
// ORACLE, the simulator the paper's experiments ran on. It simulates a
// message-passing machine: processing elements (PEs) that serve one
// message at a time from a FIFO ready queue, and communication channels
// (point-to-point links or multi-drop buses) that carry one message at a
// time, so both compute and communication contention are modelled.
//
// # Job-stream lifecycle
//
// Work enters the machine as jobs: root goals injected by a JobSource
// over virtual time. Every deterministic source is one schedule of
// rounds of simultaneous jobs a fixed gap apart: the paper's
// closed-system experiment — one tree injected at time zero, machine
// drains, makespan measured — is one round of one job (NewSingleJob,
// which machine.New builds directly), NewFixedInterval is rounds of one
// job and NewBurst rounds of several. NewPoisson draws its gaps instead.
// Open-system runs use NewStream: arrivals are pulled lazily, each
// job's root goal is accepted at Config.RootPE, and the run completes
// when the source is exhausted and every job has left. An overloaded
// stream that reaches Config.MaxTime with jobs still in flight is the
// saturation regime, reported via Stats rather than treated as a
// failure.
//
// Per job, the machine records a JobRecord — injection time, completion
// time, result — and adds the job's sojourn to the run's one sojourn
// sample, Stats.SteadySojourn (mean/p50/p99 via metrics.Sample), when
// it was injected at or after Config.Warmup: with no warm-up, every
// job. Stats also derives throughput, and steady-state utilization with
// the ramp-up before Config.Warmup excluded. A scripted, sampled run (a
// Config.Scenario with SampleInterval > 0) also logs every completion
// as its injection time and sojourn, one log per shard, and both
// windowed sojourn series read that log: SojournWindows pools each
// sampling window's completions, and InjSojournWindows buckets the
// whole log by injection window at finalize.
//
// Determinism is preserved: arrival randomness draws from a dedicated
// stream derived from the run seed, disjoint from the engine's
// tie-breaking stream, so single-job runs reproduce the paper's event
// sequences bit for bit and equal seeds give identical streams.
//
// # Computation model
//
// The computation model follows Section 2 of the paper: a goal executes
// for a grain time and either completes (sending a response to its
// parent's PE) or spawns sub-goals and waits for their responses; a task
// never migrates after spawning. Where each new goal executes is decided
// by a pluggable Strategy (package core provides CWN, the Gradient Model
// and several baselines). As the paper assumes, a communication
// co-processor performs routing and load-balancing work, so strategy
// decisions consume channel time but no PE compute time.
//
// # Event-driven strategy API
//
// A Strategy is a name and a per-PE node factory: it supplies one
// NodeStrategy per PE, which may register periodic processes
// (Machine.NewTicker: a callback and a period, run as one
// self-re-arming payload event, like every PE's load tick and the
// utilization sampler), and the machine drives each node through a
// typed event stream (NodeStrategy.HandleEvent): GoalCreated asks for a
// placement decision, GoalArrived delivers a goal message, Control
// delivers strategy control payloads. Scenario runs add
// PEFailed/PERecovered, which ride the failing PE's immediate
// sentinel-load broadcast to its neighbors (charged channel time like
// any load word). Their delivery is strictly opt-in through the
// FailureAware capability interface, resolved once per node at
// construction: strategies that ignore it behave — and cost — exactly
// as a sentinel-only implementation. Speed changes and link outages
// reach strategies only through their effect on load words. A strategy
// whose nodes never read those words declares it through LoadBlind,
// resolved once per machine, and its machine tallies the words instead
// of delivering them (see Hot path).
//
// A PE's "load" is the number of messages waiting in its ready queue —
// the paper's measure — optionally augmented with the count of tasks
// awaiting responses (the "future commitments" refinement from the
// paper's conclusions). Load information travels to neighbors through
// periodic short broadcasts and piggybacked on every regular message.
//
// # Dynamic environments
//
// Config.Scenario attaches a scripted timeline of perturbations
// (internal/scenario) that the machine replays at their virtual times:
// PE speed changes rescale in-flight service proportionally; a PE
// failure is a compute blackout — service stops, the in-service goal
// aborts and queued goals evacuate to the nearest live PE, arriving
// goals redirect, responses and pending tasks freeze in place until
// recovery, while the communication co-processor stays up and the PE
// advertises a sentinel load that steers strategies away; channels
// degrade (occupancy stretched) or go down entirely (messages hold at
// the sender and flush in order on restore); and load shocks multiply
// the arrival process's offered rate. Scenario accounting lands in
// Stats (GoalsRequeued, ServiceAborts, DownPETime, the queue-imbalance
// and windowed-p99 series) and an empty scenario leaves runs
// bit-for-bit identical to unscripted ones.
//
// A crash (the scenario `crash:` op) is the state-loss failure the
// blackout is not: the PE's queued and in-flight goals, queued
// responses and pending tasks are destroyed. Each job that lost state
// aborts — an attempt-epoch bump instantly stales its surviving goals
// machine-wide, which the machine discards wherever they surface — and
// is re-injected, keeping its original injection time so sojourn
// statistics bill the failed attempt. With periodic checkpoints
// scripted (the `checkpoint:` op), the retry resumes from the job's
// durable frontier — goals re-derived below the snapshot run at replay
// cost instead of full grain time — and every live PE pays the
// scripted snapshot cost at each tick (busy PEs extend their in-flight
// service, idle PEs accrue debt paid at the next service start). A
// positive Config.RetryLimit bounds the budget: each abort beyond it
// abandons the job for good instead of re-injecting (optionally after
// an attempt-scaled Config.RetryBackoff delay), and Stats.Goodput
// prices the loss. The accounting lands in Stats.GoalsLost/JobsAborted
// /JobsRetried/JobsAbandoned with the machine-wide invariant
// JobsRetried + JobsAbandoned == JobsAborted. Chaos generator events —
// including the correlated rack/block failure-domain modes — expand
// into concrete deterministic failure timelines at machine
// construction (ScenarioScript exposes the expanded script).
//
// # Hot path
//
// The per-goal path is hash-free end to end: a PE indexes its pending
// tasks in an open-addressed slab keyed by goal ID (pendingslab.go —
// sequential IDs make the low bits a perfect hash), ready queues are
// ring buffers, and every transient object (wire messages, goals,
// pending tasks, job states) recycles through slice-stack free lists
// that live and die with the run's machine. The engine underneath runs
// the two-tier wheel scheduler (internal/sim), which holds every event
// by value in reused chunks. The free-list discipline —
// pointer fields zeroed on free, no touching an object after its
// free-list put — is machine-checked: pooled types carry
// //simlint:pooled and free functions //simlint:free, and the poolsafe
// analyzer (internal/analysis, run by CI as cmd/simlint) enforces both
// rules at vet time.
//
// Load traffic is most of the work: every PE broadcasts one load word
// per attached channel every LoadInterval. On fault-shard (seed 1),
// 12.3M of the 15.7M events Stats.Events counts are load-word
// deliveries, and 7.9M of ctrl-gm's 12.2M. Three figures describe the
// work: the events Stats.Events counts, one per delivery; the
// scheduler entries the engine fires; and the tallies that stand for
// deliveries no strategy reads. So delivering a word is an index walk,
// not a search of the receiver's neighbor list, and a word nobody reads
// is not delivered at all. At construction each shard builds one flat
// int32 receiver-slot table: for every channel it holds and every
// ordered (sender, receiver) pair of the channel's members, the index
// of the receiver's view of the sender in the flat per-neighbor
// backings, or -1 where the shard does not own the receiver — s·(s-1)
// entries for a channel of span s, 8 bytes per link, addressed from the
// chanState's slot offset, one row of s-1 entries per sender. Next to
// it the machine keeps one flat fan-out table: per owned PE, one entry
// per attached channel holding the channel's local index and the PE's
// row (offset and length), the PE's entries found by offset (fanOff).
//
// A periodic load word is therefore not a wire message, and one
// broadcast's words are not one event each. Each owned PE's load
// process is one payload event (sim.Engine.AtPayload) carrying the PE's
// block index and its range in the fan table, whose one shared Action
// (loadTick) broadcasts and then re-arms the event LoadInterval later,
// with no timer or closure per PE. broadcastLoad reads the PE's load
// from the dense per-PE counts and occupies each attached channel in
// fan order through the channel's hot record, and in the same loop it
// groups the words into runs: consecutive fan entries due at one
// instant, a run also ending at a word this shard does not deliver
// (held at a downed link, or with no receiver here). Each run is one
// payload event carrying its offset in the fan table, its length and
// the load. Nothing else is scheduled while the broadcast runs, so one
// instant's runs sit back to back in that instant's FIFO, in fan
// order, where the words would have sat one by one; the run's event
// (wordBatch) takes its first word's (time, seq) position and writes
// the words' views in fan order, which reproduces every delivery. It
// counts the words beyond its first (batchExtra), and finalize adds
// them to Stats.Events, so Events still counts every delivery and the
// pinned digests hold. At seed 1 fault-shard fires 7.20M scheduler
// entries for its 15.7M events, stream-cwn 2.40M for 3.18M and the
// paper sweep 7.54M for 15.0M. Every other periodic process — a
// strategy's (Machine.NewTicker) or the utilization sampler — is a
// payload event of a second shared Action (procTick), carrying the
// callback's slot in a per-machine table and the period; it runs the
// callback, then re-arms, loadTick's order. Where a word waits it
// waits by value: in a downed channel's held list until the
// link comes back, or in the outbox to another shard, whose drain
// looks the row up on the receiving shard's own table; those words
// deliver one event each (wordSink). Environment and control
// broadcasts and point-to-point hops stay wire messages: a wire
// message carries its channel's global ID, which each shard resolves
// to its own channel copy (chanLocal), so a message handed across
// shards reads the receiving shard's slots. Environment broadcasts and
// piggybacked load words write by slot too, after a member scan.
//
// A strategy that never reads a neighbor's load word (GM, Local,
// RandomWalk, RoundRobin, Ideal) declares it through LoadBlind. Its
// machine keeps every send-side charge — each word occupies its
// channel, counts as a MsgLoad message, holds at a downed link and
// crosses to another shard's outbox — but keeps no load view (the
// reads panic), so no delivery fires. broadcastLoad tallies each run
// (sim.Engine.Tally) where its event would sit; a held word flushed at
// a restore tallies one, and so does a word drained from another
// shard's outbox, on the receiving engine, where its delivery would
// have fired. Loads piggybacked on wire messages and environment
// broadcasts write no view there either. A tally counts its words as
// events in its FIFO place, so Events is what delivering them would
// count, even where the simulation stops in the middle of an instant,
// and the tallies due at one instant merge into one count while
// nothing else is pushed there: ctrl-gm (GM, seed 1) counts its 12.2M
// events as 4.27M fired entries and 7.94M tallied words, from 2.37M
// Tally calls the engine meets as 60K counts.
//
// # Memory layout
//
// The layout is built for million-PE machines (BenchmarkScale's
// poisson-torus1000 case runs 1,000,000 PEs in under 2 GiB of heap, and
// fails above it); TestConstructionBudget holds construction to its
// per-PE budget. Four decisions carry it:
//
// Struct-of-arrays hot state. The per-event PE fields — busy, failed,
// remaining-service end, accrued busy time, speed, the ready-queue
// length and the pending-task count — live in parallel slices on the
// Machine (peBusy, peFailed, peServiceEnd, peBusyTime, peSpeed,
// peQueue, pePending), indexed by the PE's local index (PE.lx). An
// event touching a thousand PEs walks flat arrays instead of
// dereferencing a thousand structs; the speed slice is nil for
// homogeneous machines. The two counts are owned there, not by the
// ready ring and the pending slab, so a PE's advertised load (loadOf)
// reads two dense arrays, and a load tick touches no PE struct. The PE
// struct keeps the cold and per-PE-shaped state (ready ring, pending
// slab, neighbor views), and the structs themselves sit in one
// contiguous block (peBlock), not a million singleton allocations.
//
// Flat adjacency. Neighbor lists, per-neighbor load views, the fan-out
// table and channel membership are capacity-capped subslices or ranges
// of shared flat backings (CSR form), so per-PE adjacency costs array
// bytes, not slice-header garbage and pointer-chased little arrays.
// Channel state is split hot from cold in two parallel value slices
// that never grow, indexed by the channel's local index (its global ID
// on one shard): hot holds a 32-byte chanHot per channel — busy-until,
// busy total, message count and the down, degraded, cross-shard and
// local-receiver flags, all a send reads or writes, two channels to a
// cache line — and chans the chanState with the rest (members, degrade
// factor, slot offset, held list, crossTo). A fan entry names its
// channel's local index, so a broadcast indexes hot directly, with no
// global-to-local hop on a sharded machine.
//
// Pooled chunks. Goals, wire messages, pending tasks and job states
// come from one generic pool per type (pool, machine.go): a freed
// object is reused last-in first-out, and a miss carves the next
// object from a chunk (chunks doubling up to poolChunk objects) instead
// of allocating a singleton, and the engine (internal/sim) stores
// events by value in reused 512-byte chunks: the retained working set
// is a few contiguous blocks the garbage collector marks cheaply, and
// a carved object is a zero value exactly like the allocation it
// replaces, so results are unaffected. Nothing survives a run: the
// pools are the machine's own, so a sweep worker's heap returns to the
// garbage collector between runs instead of retaining the previous
// run's working set. Per-PE service timers embed by value
// (sim.Timer.Init) in the PE block for the same reason, and the
// periodic processes are payload events, with no per-PE object at all.
//
// Implicit topologies. Spec-built grids, tori and hypercubes
// (experiments TopoSpec.Build) use the computed-neighbor topology form
// (internal/topology) at every size — adjacency and routing are index
// arithmetic, with no stored edge lists and no all-pairs routing table
// — which the machine consumes through the same append-style accessors
// it uses to build its flat backings. DLM and irregular graphs keep
// the materialized form and its lazily built routing table.
//
// # Sharded execution
//
// Every run is a shard group: Config.Shards splits the machine into K
// spatial shards — contiguous PE blocks from topology.Partition, each a
// full sub-machine with its own event engine, free lists and
// statistics. Shards 0 and 1 both build one shard owning every PE;
// there is no separate sequential engine, so sampling, tracing,
// checkpoint snapshots, scenario ops, job purges and nearest-live
// lookups each have one implementation, the one K shards use.
// Per-shard channel state on a multi-shard machine is sparse
// (chanIdx/chanLocal): a shard stores channel state only for channels
// its own PEs attach to — every transmit, broadcast and link op
// resolves at the sending side — so a K-shard million-PE machine stays
// near the one-shard footprint instead of paying K full channel arrays.
//
// Synchronization is conservative lookahead in the Chandy-Misra-Bryant
// tradition, run as a barrier-per-window loop: the window width is the
// minimum wire latency on any channel crossing a shard boundary, so no
// message sent inside a window can be due before the next one begins.
// Every shard therefore always holds its complete event set for the
// window it executes — no rollbacks, no null messages. A group with no
// boundary-crossing channel (always so for one shard) has unbounded
// lookahead: its run is a single window to MaxTime, cut only at
// scripted op instants, and only a single shard stops mid-window on
// completion — it alone observes the last job leaving exactly in
// virtual time. Between windows the single-threaded coordinator drains
// the per-shard-pair outboxes into the receiving engines in a fixed
// total order (delivery time, then sending shard, then FIFO),
// fast-forwards over windows no shard has events in, and checks
// completion: the source exhausted and no job in flight. One finish
// rule serves every shard count: a completed run ends at the latest
// instant any job left, whether it delivered its root response or was
// abandoned past its retry limit. At finalize the per-shard Stats merge
// into one (counters sum, per-PE arrays concatenate, distributions
// merge exactly).
//
// R = min(K, GOMAXPROCS) runners execute the windows, and R = 1 under
// Config.ShardSerial. Each runner owns a fixed set of shards for the
// whole run (runner r runs shards r, r+R, ...). Runner 0 is the
// coordinator's own goroutine; runners 1..R-1 are persistent goroutines
// released each window by an atomic generation counter, and the last
// runner to finish a window wakes the coordinator the same way.
// Each waiting side polls its counter, yielding its processor now and
// then, and parks on a one-token channel only after a bounded spin.
// Windows are short — fault-shard's hold about 60 µs of work per
// shard (its serial replay on a 2-CPU Xeon host) — so parking and
// re-waking a goroutine every window would cost about as much as the
// work; the bound keeps a stalled peer from holding a processor for
// long. The runners assume a processor each:
// where other goroutines keep the processors busy, as in a RunAll
// sweep of sharded runs, each window waits for a runner to be
// scheduled, and the serial replay can finish first. A shard panic is
// re-raised on the coordinator after the barrier, and the runners exit
// before Run returns or panics. One runner runs every shard in shard
// order on the caller's goroutine, with no recover, so its panics keep
// their stack; that is the serial replay.
//
// The determinism contract, pinned by cross-check tests
// (TestShardCrossMatrix): a run is a pure function of (seed, shard
// count). A parallel K >= 2 run equals its single-goroutine serial
// replay (Config.ShardSerial) bit for bit, so the thread schedule
// cannot leak into results; it orders same-timestamp cross-shard events
// differently than one shard and draws per-shard RNG streams, so
// against the one-shard run only conservation holds: completion, the
// computed result, goal/response/job totals and the steady sojourn
// count.
// Crash scripts narrow that last clause further: which goals a crash
// destroys depends on placement, so at K >= 2 even the execution totals
// legitimately differ from one shard and the scenario cross-check
// (TestShardScenarioCrossCheck) instead pins the retry-ledger
// invariants and the placement-independent injection stream. The
// one-shard engine's own outputs are pinned by golden digests
// (TestGoldenDigests) across sampling, tracing, blackouts, crashes
// with checkpoints and bounded retry, link outages, load shocks,
// heterogeneous speeds, bounded series and the ideal strategy.
//
// Observability uses per-shard capture and a deterministic merge.
// Every shard's sampler draws its phase from the plain run
// seed, so sample instants are globally synchronized; each shard
// records raw partials for its own PE block (busy-time deltas,
// queue-length sums and sums of squares, monitor frames, the length of
// its completion log) and mergeSamples folds each instant into the
// merged Stats as soon as every shard has reached it — at once on one
// shard, at the next barrier on several — pooling each shard's
// completions since its previous sample, and recomputing Jain's
// imbalance index from the pooled raw sums because it does not merge
// from per-shard indices.
// Trace events buffer per shard and replay into the configured sink on
// the coordinator after the runners exit, merged by (time, shard,
// emission order), preserving the Sink single-goroutine contract.
//
// Scenario replay follows an ops-first barrier discipline. The script
// expands once at construction (chaos draws included, from the plain
// run seed, so the timeline is identical under any shard count), and
// the coordinator owns it: each window barrier is clamped one tick
// short of the next scripted op's instant, so no shard ever executes
// past an op before it applies. At the barrier the coordinator steps
// every quiescent shard engine onto the instant (sim.Engine.AdvanceTo)
// and applies the op to the owning shards in shard order — before that
// instant's machine events fire. Ops whose scope is global (load
// shocks, checkpoint ticks with their snapshot of every live job, crash
// aborts purging a job machine-wide) walk all shards in shard order
// from the coordinator, which is single-threaded between windows, so no
// locks are involved. Recovery accounting (windowed p99 series,
// abort/retry/abandon counters, down-PE time) records per shard and
// folds through the same merge discipline as the observer state above;
// the injection-keyed series is bucketed from every shard's completion
// log at finalize.
//
// Strategies whose correctness needs a single global timeline declare
// it via SequentialOnly (core's ORACLE/ideal baseline does): they run on
// one shard, which owns every PE, and multi-shard construction refuses
// them with the strategy's stated reason. The merge is machine-checked
// by internal/analysis: statsmerge proves every Stats field is either
// folded by the shard merge or tagged //simlint:nomerge with a reason.
package machine
