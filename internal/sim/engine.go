package sim

import (
	"fmt"
	"math/rand"
)

// Time is virtual simulation time in abstract integer units. The paper
// charges integral "units" for primitive operations (e.g. the gradient
// process interval is 20 units), so integer time loses nothing and keeps
// event ordering exact.
type Time int64

// Never is a sentinel meaning "no deadline".
const Never Time = -1

// Event is a handle to a scheduled closure. It can be cancelled up to the
// moment it fires. Pooled events (ScheduleAction/AtAction) are recycled
// through the engine free list after firing.
//
//simlint:pooled
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	act      Action
	canceled bool
	pooled   bool // owned by the engine free list; recycled after firing
	// index locates the event inside the scheduler: a position >= 0 in
	// the overflow heap, idxWheel while chained in a wheel slot, idxIdle
	// when not scheduled.
	index int
	// next/prev chain the event into a wheel slot's FIFO (nil while in
	// the overflow heap).
	next, prev *Event
}

const (
	// idxIdle marks an event that is not scheduled anywhere.
	idxIdle = -1
	// idxWheel marks an event chained in a bucket-wheel slot.
	idxWheel = -2

	// eventChunkSize is the arena granularity for pooled events: the
	// free-list miss path carves events out of chunks this large. The
	// steady-state pooled population is roughly the peak number of
	// simultaneously scheduled actions, so 256 keeps small runs to one
	// or two chunks while a saturated million-PE run fills whole chunks
	// back to back.
	eventChunkSize = 256
)

// Action is a schedulable behavior: the allocation-free alternative to a
// closure. Hot-path callers embed their state in a value implementing
// Action and hand it to ScheduleAction/AtAction; the engine recycles the
// backing Event through an internal free list. No handle is returned, so
// a recycled Event can never be reached through a stale *Event — pooled
// events are therefore uncancellable by construction.
type Action interface{ Act() }

// At reports the virtual time the event is scheduled for.
func (ev *Event) At() Time { return ev.at }

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (ev *Event) Cancel() {
	ev.canceled = true
}

// Canceled reports whether Cancel was called.
func (ev *Event) Canceled() bool { return ev.canceled }

// Engine is a discrete-event simulator instance.
//
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now       Time
	seq       uint64
	sched     *wheelSched
	free      []*Event // recycled pooled events (ScheduleAction/AtAction)
	chunk     []Event  // arena tail: pooled events are carved from here on free-list miss
	rng       *rand.Rand
	seed      int64
	stopped   bool
	processed uint64
}

// NewEngine returns an engine with the clock at zero whose random stream
// is derived from seed. Equal seeds yield byte-identical simulations.
func NewEngine(seed int64) *Engine {
	return &Engine{
		sched: newWheelSched(),
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Seed returns the seed the engine was constructed with.
func (e *Engine) Seed() int64 { return e.seed }

// Rng returns the engine's deterministic random stream. All stochastic
// choices in a simulation (tie-breaks, phase staggering) must draw from
// this stream so that a run is a pure function of its seed.
func (e *Engine) Rng() *rand.Rand { return e.rng }

// Processed returns the number of events fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled (including
// cancelled events not yet discarded).
func (e *Engine) Pending() int { return e.sched.size() }

// Schedule runs fn after delay units of virtual time. A negative delay
// panics: the past is immutable in a discrete-event simulation.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %d at t=%d", delay, e.now))
	}
	return e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t (t must not precede Now).
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) before now=%d", t, e.now))
	}
	if fn == nil {
		panic("sim: At with nil fn")
	}
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.seq++
	e.sched.push(ev)
	return ev
}

// ScheduleAction runs a.Act() after delay units of virtual time. It is
// the pooled, closure-free analogue of Schedule: no Event handle is
// returned and the backing Event is recycled after firing.
func (e *Engine) ScheduleAction(delay Time, a Action) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: ScheduleAction with negative delay %d at t=%d", delay, e.now))
	}
	e.AtAction(e.now+delay, a)
}

// AtAction runs a.Act() at absolute virtual time t (t must not precede
// Now). See ScheduleAction.
func (e *Engine) AtAction(t Time, a Action) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AtAction(%d) before now=%d", t, e.now))
	}
	if a == nil {
		panic("sim: AtAction with nil Action")
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		// Free-list miss: carve the next event from the arena chunk
		// instead of allocating a singleton, so the steady-state event
		// population sits in a handful of contiguous blocks rather than
		// scattered across the heap. A carved event is a zero value,
		// exactly like the &Event{} it replaces.
		if len(e.chunk) == 0 {
			e.chunk = make([]Event, eventChunkSize)
		}
		ev = &e.chunk[0]
		e.chunk = e.chunk[1:]
	}
	ev.at, ev.seq, ev.act, ev.pooled = t, e.seq, a, true
	e.seq++
	e.sched.push(ev)
}

// recycle returns a pooled event to the free list. The scheduler has
// already unlinked the event (next/prev are nil after a wheel pop), but
// they are re-zeroed here so the free list never pins a dead chain.
//
//simlint:free
func (e *Engine) recycle(ev *Event) {
	ev.fn, ev.act, ev.canceled, ev.pooled = nil, nil, false, false
	ev.next, ev.prev = nil, nil
	e.free = append(e.free, ev)
}

// Step fires the single next event. It returns false when no events
// remain or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	for {
		ev := e.sched.pop()
		if ev == nil {
			return false
		}
		if ev.canceled {
			if ev.pooled {
				e.recycle(ev)
			}
			continue
		}
		if ev.at < e.now {
			panic("sim: event heap returned an event from the past")
		}
		e.now = ev.at
		e.processed++
		// Copy the behavior out and recycle before firing, so a handler
		// that schedules new actions reuses this very Event.
		fn, act := ev.fn, ev.act
		if ev.pooled {
			e.recycle(ev)
		}
		if act != nil {
			act.Act()
		} else {
			fn()
		}
		return true
	}
}

// Run fires events until none remain or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to deadline (if it has not passed it already). It returns true if live
// (uncancelled) events remain pending afterwards — whether they lie
// beyond the deadline or Stop froze the run with work outstanding; use
// Stopped to distinguish. When Stop fires mid-run the clock stays at the
// stopping event's time rather than jumping to the deadline.
func (e *Engine) RunUntil(deadline Time) bool {
	for {
		if e.stopped {
			return e.sched.peek() != nil
		}
		ev := e.sched.peek()
		if ev == nil {
			if e.now < deadline {
				e.now = deadline
			}
			return false
		}
		if ev.at > deadline {
			if e.now < deadline {
				e.now = deadline
			}
			return true
		}
		e.Step()
	}
}

// AdvanceTo moves the clock forward to t without firing anything. It
// panics on a rewind or when an event strictly earlier than t is still
// pending — advancing past it would fire it in the past. The machine's
// shard coordinator uses this at window barriers to park every
// quiescent shard exactly on a scenario op's scripted instant, then
// applies the op before the machine events sharing its timestamp.
func (e *Engine) AdvanceTo(t Time) {
	if t < e.now {
		panic("sim: AdvanceTo would rewind the clock")
	}
	if ev := e.sched.peek(); ev != nil && ev.at < t {
		panic("sim: AdvanceTo would skip a pending event")
	}
	e.now = t
}

// NextEventAt returns the timestamp of the earliest pending live
// (uncancelled) event; ok is false when nothing is pending or the
// engine is stopped. Windowed drivers (the machine's
// conservative-lookahead loop) use it to fast-forward across windows
// no shard has work in.
func (e *Engine) NextEventAt() (t Time, ok bool) {
	if e.stopped {
		return 0, false
	}
	ev := e.sched.peek()
	if ev == nil {
		return 0, false
	}
	return ev.at, true
}

// Stop halts Run/RunUntil after the current event. Further Step calls
// return false. Pending events are retained (inspectable) but will not
// fire.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
