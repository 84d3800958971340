// Package sim implements the deterministic discrete-event simulation
// engine underneath the multiprocessor model — the Go analogue of the
// kernel of ORACLE, the SIMSCRIPT simulator the paper's experiments were
// run on.
//
// The engine maintains a virtual clock and a pending-event set ordered by
// (time, insertion sequence). Resources such as processing elements and
// communication channels are modelled by the machine package as state
// machines that schedule their own continuation events.
//
// # Determinism
//
// A run is a pure function of its seed: two events at the same virtual
// time fire in the order they were scheduled, and every stochastic choice
// inside the simulated system draws from the engine's single seeded
// generator (Rng). Streams that merely feed or observe the system — job
// arrival processes, utilization samplers — draw from their own salted
// generators derived from the same seed, so turning a workload stream or
// a monitor on or off never perturbs the system's tie-break draws.
//
// # Scheduler
//
// The pending-event set is a two-tier scheduler that holds every event
// by value, as a 32-byte entry: an Action and two payload words. Tier
// one is a rotating bucket wheel — 2048 slots, one per unit of virtual
// time, covering the window [now, now+2048). Integral time plus a
// window equal to the slot count means each slot holds exactly one
// timestamp, so ordering within a slot is a FIFO appended in seq
// order: push stores an entry at the tail, firing reads it from the
// head in place, with no comparisons. A slot's FIFO is a short list of
// 512-byte chunks of 15 entries, which the engine takes from and
// returns to a spare list. Tier two is an overflow min-heap of (time,
// seq, entry) for events beyond the window; it drains into the wheel
// as the window advances, in (time, seq) order, into slots that are
// necessarily still empty — which is what preserves exact
// heap-equivalent ordering across the tier boundary. All entries of
// one instant sit in one tier, so when a push behind the cursor
// rewinds the window, the instants it evicts return to the heap whole,
// in FIFO order. TestSchedulerEquivalence and FuzzSchedulerEquivalence
// fire random cascades through the engine and through the heap under a
// bare loop and demand identical logs. The wheel wins wherever events
// are dense in time relative to the window — load words, periodic
// processes re-arming, service completions and control-heavy machines
// with thousands of resident events: it measured 1.8-3.7x a standing
// binary heap's events/sec on every perf-ledger case, so the heap was
// retired as a selectable scheduler and survives only as the overflow
// tier. Its costs are 32KB of standing slot memory per engine, a chunk
// per occupied slot, and one nil check per empty slot stepped over.
//
// Every event but a Timer's is its entry and nothing more, and cannot
// be taken back. A Timer's arming is pushed as a guard entry naming
// the Timer and the arming it belongs to; stopping the Timer makes the
// guard stale, and the engine discards a stale guard when it reaches
// the front, without firing or counting it. So Timer.Stop is O(1) and
// removes nothing, and Pending, which leaves stale guards out, stays
// exact. Guards take the same path through RunUntil and Step as every
// other entry: one type check on the head entry.
//
// # Performance model
//
// A full comparison run of the paper's suite pops a few hundred million
// events, so the hot path is engineered to allocate nothing in steady
// state:
//
//   - ScheduleAction/AtAction take an Action value instead of a closure
//     and return no handle; the entry is all there is of the event, so
//     steady-state messaging costs no allocation and no object.
//   - AtPayload is AtAction plus two words of payload carried in the
//     entry, which the Action reads through Payload while it fires.
//     One Action value then serves a whole class of events, each with
//     its own arguments: the machine delivers every periodic load word
//     this way, the payload naming the receivers' slot row and the
//     load, and runs every periodic process — each PE's load
//     broadcast, each strategy process, the utilization sampler — as
//     one payload event that re-arms itself a period later, so
//     periodic processes allocate nothing per firing.
//   - Timer is the one event a caller can stop — it carries the PE
//     service completions, which scenario ops cut short or stretch —
//     and re-arming it allocates nothing.
//   - Schedule/At push the closure as an entry and return nothing: a
//     func value is pointer-shaped, so the entry costs no allocation
//     beyond the closure itself.
//
// Entries are passed down the push path field by field, not as one
// struct value, which would stall on store forwarding. The chunk size
// is a memory decision: a sparse wheel (a small machine with one or
// two events per occupied instant) pays a chunk per occupied instant,
// and 2 KB chunks raised the paper-sweep benchmark's peak RSS by about
// 11% where 512-byte ones cost about 2% (TestEntryAndChunkLayout pins
// the entry and the chunk).
//
// Each engine is intentionally single-goroutine: its event loop is a
// sequential computation over virtual time, with no locks on the hot
// path. Parallelism lives one level up, in two forms. The experiment
// harness runs many independent simulations on separate goroutines.
// And every machine is a group of K >= 1 engines
// (machine.Config.Shards), each owning a slice of the machine and
// advancing in lockstep through bounded windows via RunUntil(deadline)
// — fire everything due by the deadline, report whether live events
// remain — with NextEventAt letting the coordinator fast-forward over
// windows no engine has events in, and AdvanceTo parking every engine
// on a scripted scenario op's instant. Windowed stepping is exact: any
// partition of a run into RunUntil calls fires the same events in the
// same order as one call, so the window protocol adds synchronization
// points, never reordering. Cross-engine sends are injected between
// windows via AtAction by the coordinating goroutine while the engines
// are quiescent; the engine itself stays lock-free.
package sim
