// Package scenario scripts dynamic-environment perturbations into a
// run: a deterministic timeline of events the machine replays during
// the simulation. The paper compares CWN and the Gradient Model on a
// uniform, static machine; this package supplies the missing axis —
// how a *dynamic* load-distribution method re-distributes after the
// environment shifts under it.
//
// A Script is an ordered list of Events, each firing at a virtual
// time:
//
//   - SlowPE / RestorePE   rescale PE service speed mid-run (in-flight
//     service is rescaled proportionally, not restarted)
//   - FailPE / RecoverPE   compute blackout: the PE stops serving, its
//     queued goals are evacuated to the nearest live PE, and arriving
//     goals are redirected; pending tasks and queued responses freeze
//     in place until recovery (the communication co-processor stays
//     up, so routing through a failed PE still works)
//   - CrashPE              crash with state loss: queued and in-flight
//     goals, queued responses and pending tasks are destroyed; every
//     job that lost state aborts and is retried — from its last
//     checkpoint frontier when checkpointing is scripted, from its
//     root otherwise — or abandoned once Config.RetryLimit runs out.
//     RecoverPE brings a crashed PE back, empty
//   - DegradeLink / RestoreLink   multiply a link's occupancy time, or
//     (factor 0) take it down entirely — messages queue at the sender
//     and flush in order on restore
//   - LoadShock   multiply the arrival process's offered rate for all
//     subsequently drawn inter-arrival gaps
//   - CheckpointTick   periodic snapshot: every live job's execution
//     position becomes durable, and every live PE pays the scripted
//     cost (see "Checkpoint semantics" below)
//   - Chaos       a random-failure generator rather than a concrete
//     event: exponential MTBF/MTTR processes over uniformly chosen
//     PEs — or uniformly chosen failure *domains* (see below) — drawn
//     from a dedicated salted stream of the generator seed.
//     Script.Expand resolves it into a concrete fail/recover (or
//     crash-mode) timeline at machine construction — the same seed,
//     machine size and horizon always produce the identical timeline
//
// Scripts are plain data: build them programmatically or parse the
// compact text form used by spec files and the CLI, e.g.
//
//	fail:pes=25%@t=5000,recover@t=10000
//	crash:pes=25%@t=5000,recover@t=10000
//	slow:pes=0+1:x=0.5@t=2000,restore:pes=0+1@t=4000
//	degradelink:a=0:b=1:x=0@t=100,restorelink:a=0:b=1@t=300
//	shock:x=3@t=1000,shock:x=1@t=2000
//	checkpoint:every=2000:cost=5@t=0
//	chaos:mtbf=3000:mttr=800@seed=7
//	chaos:mtbf=3000:mttr=800:crash:domain=rack:8@seed=7
//	chaos:mtbf=3000:mttr=800:domain=block:4x4@seed=7
//
// An empty (or nil) Script schedules nothing and leaves a run
// bit-for-bit identical to one without a scenario — pinned by
// regression test — so the scripted machinery costs nothing when
// unused.
//
// # Failure domains
//
// Real machines do not fail one PE at a time: a rack loses power, a
// backplane drops a contiguous block. The chaos generator's domain
// modes draw correlated strikes with that blast radius. domain=rack:N
// partitions the index space into contiguous runs of N PEs;
// domain=block:AxB tiles a row-major ceil-sqrt grid of the machine
// into AxB rectangles. Each strike picks one domain uniformly, fails
// (or crashes) every live member at the same instant, and repairs the
// whole domain together after an exponential MTTR draw — a correlated
// blackout with a shared RecoverPE. Domain arithmetic is closed-form
// (pure index math), so domain chaos runs unchanged on the implicit
// million-PE topologies; the generator never strikes the last live
// domain, keeping the machine serviceable. Correlated strikes are the
// stress test for locality-aware re-steering: a failure-aware strategy
// that evacuates one PE's neighborhood must now survive losing the
// whole neighborhood at once, and a spatially sharded run sees entire
// shard blocks go dark inside one window.
//
// # Checkpoint semantics
//
// checkpoint:every=E:cost=C@t=0 schedules a CheckpointTick every E
// virtual units. At each tick, every live job's execution position (its
// count of executed goals, maintained only while a crash script is
// live) becomes the job's durable frontier, and every live PE pays C:
// a busy PE's in-flight service extends by C, an idle PE accrues debt
// paid at its next service start — snapshotting is not free, which is
// the entire tradeoff. When a crash later aborts a job, the retry
// resumes from the durable frontier rather than the root: goals of the
// new attempt that start service before the replay horizon run at one
// unit each (re-deriving state is cheaper than computing it), and full
// cost resumes past the frontier. TestCheckpointIntervalTradeoff
// (internal/experiments) pins the resulting U-curve: too-rare snapshots
// re-lose work to every crash, too-frequent ones tax every service;
// some middle interval strictly beats both.
//
// # Retry and abandonment policy
//
// Unbounded retry (the default, Config.RetryLimit == 0) means a
// crashed job is re-injected as often as it takes: JobsRetried ==
// JobsAborted always, and availability is unmeasurable because the
// machine never gives up. A positive RetryLimit bounds the budget:
// each abort either re-injects the job (JobsRetried, after an optional
// attempt-count × Config.RetryBackoff delay) or — once the job has
// been aborted more than RetryLimit times — abandons it for good
// (JobsAbandoned): the job leaves the system uncompleted, exactly what
// Stats.Goodput (JobsDone / JobsInjected) prices. The ledger balances
// machine-wide in every run mode: JobsRetried + JobsAbandoned ==
// JobsAborted, pinned by test at one shard and at four
// (TestShardScenarioCrossCheck).
//
// Availability transitions also feed the machine's event-driven
// strategy API: failing/recovering PEs announce PEFailed/PERecovered
// with their immediate sentinel broadcast, and link outages notify
// their endpoints — strategies opting in (machine.FailureAware) can
// re-steer the moment the environment shifts instead of waiting for
// the next periodic load word.
//
// Recovery analysis: AnalyzeRecovery turns a windowed sojourn-p99
// series into the subsystem's headline metrics — the pre-disruption
// baseline p99, the peak during the disruption, and the time after the
// last restore event until the p99 holds steady at baseline again. Two
// keyings of the series exist: completion-time windows
// (Stats.SojournWindows, where jobs injected during the disruption
// echo into post-restore windows as they straggle home) and
// injection-time windows (Stats.InjSojournWindows, isolating what
// newly arriving jobs experienced); runs report both. Both keyings,
// and the rest of the scenario accounting, fold through the shard
// merge path: a scripted run reports the same recovery metrics surface
// at any Config.Shards count.
package scenario
