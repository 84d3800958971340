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
// The pending-event set is a two-tier scheduler. Tier one is a rotating
// bucket wheel — 2048 slots, one per unit of virtual time, covering the
// window [now, now+2048). Integral time plus a window equal to the slot
// count means each slot holds exactly one timestamp, so ordering within
// a slot is a doubly-linked FIFO appended in seq order: push and pop are
// O(1) pointer moves with no comparisons. Tier two is an overflow
// min-heap for events beyond the window; it drains into the wheel as the
// window advances, in (time, seq) order, into slots that are necessarily
// still empty — which is what preserves exact heap-equivalent ordering
// across the tier boundary (TestSchedulerEquivalence fires one random
// cascade through the wheel and through a plain binary heap and demands
// identical logs). The wheel wins wherever events are dense in time
// relative to the window — Timer re-arm traffic (service completions,
// tickers, arrival pumps) and control-heavy machines with thousands of
// resident timers: it measured 1.8-3.7x a standing binary heap's
// events/sec on every perf-ledger case, so the heap was retired as a
// selectable scheduler and survives only as the overflow tier. Its
// costs are 32KB of standing slot memory per engine and one nil check
// per empty slot stepped over.
//
// # Performance model
//
// A full comparison run of the paper's suite pops a few hundred million
// events, so the hot path is engineered to allocate nothing in steady
// state:
//
//   - Schedule/At allocate one Event per call and return it as a
//     cancellable handle; those handles are never recycled, so a stale
//     handle is always safe.
//   - ScheduleAction/AtAction take an Action value instead of a closure,
//     return no handle, and recycle the backing Event through a free
//     list: steady-state messaging costs zero allocations per event.
//   - AtPayload is AtAction plus two words of payload carried in the
//     Event itself, which the Action reads through Payload while it
//     fires. One Action value then serves a whole class of events, each
//     with its own arguments, with no per-event object behind it: the
//     machine delivers every periodic load word this way, the payload
//     naming the receivers' slot row and the load.
//   - Timer owns one embedded Event it re-arms for every firing — the
//     building block for tickers, PE service completions and arrival
//     pumps. Ticker is built on Timer, so periodic processes allocate
//     only at construction.
//
// An Event has one behavior field, an Action: a closure scheduled with
// At or armed on a Timer is adapted to one (a func type with an Act
// method, which costs no allocation), so firing is a single interface
// call. That field and a 32-bit scheduler index make room for the
// payload words within 72 bytes (TestEventFitsSeventyTwoBytes).
// RunUntil takes the event its peek found straight off the cursor slot,
// without seeking the wheel a second time.
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
// on a scripted scenario op's instant. Windowed stepping is exact: any partition of a
// run into RunUntil calls fires the same events in the same order as
// one call, so the window protocol adds synchronization points, never
// reordering. Cross-engine sends are injected between windows via
// AtAction by the coordinating goroutine while the engines are
// quiescent; the engine itself stays lock-free.
package sim
