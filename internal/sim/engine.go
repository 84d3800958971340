package sim

import (
	"fmt"
	"math"
	"math/rand"
)

// Time is virtual simulation time in abstract integer units. The paper
// charges integral "units" for primitive operations (e.g. the gradient
// process interval is 20 units), so integer time loses nothing and keeps
// event ordering exact.
type Time int64

// Never is a sentinel meaning "no deadline".
const Never Time = -1

// Action is a schedulable behavior: the allocation-free alternative to a
// closure. Hot-path callers embed their state in a value implementing
// Action and hand it to ScheduleAction/AtAction (or AtPayload, which
// adds two words the Action reads back through Payload); the engine
// stores it by value in the scheduler with no object behind it.
type Action interface{ Act() }

// funcAction adapts a closure to Action, so a scheduled closure is an
// entry like any other. A func value is pointer-shaped: the conversion
// allocates nothing.
type funcAction func()

func (f funcAction) Act() { f() }

// Engine is a discrete-event simulator instance.
//
// The zero value is not usable; construct with NewEngine.
//
// A sharded run allocates its shards' engines back to back and runs
// them on different CPUs, so an Engine is exactly 128 bytes, a size
// class the allocator aligns to 128, and every engine owns whole cache
// lines. Were it not, one engine's processed count and the next one's
// clock would share a line that every event on either shard writes.
type Engine struct {
	now       Time
	processed uint64
	// arg is the payload of the event firing now (see Payload).
	arg     [2]uint64
	stopped bool
	// The scheduler is held by value, so the fire path reaches the
	// wheel without a pointer hop; its hot fields share the clock's
	// cache line.
	wheelSched
	rng  *rand.Rand
	seed int64
}

// NewEngine returns an engine with the clock at zero whose random stream
// is derived from seed. Equal seeds yield byte-identical simulations.
func NewEngine(seed int64) *Engine {
	return &Engine{
		wheelSched: wheelSched{slots: new([wheelSpan]wheelSlot)},
		rng:        rand.New(rand.NewSource(seed)),
		seed:       seed,
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

// Processed returns the number of events fired so far, tallied events
// (see Tally) included.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled, tallied
// events included. Stopped timers are not counted, though the scheduler
// discards their guards only when their time comes.
func (e *Engine) Pending() int { return e.size() }

// Schedule runs fn after delay units of virtual time. A negative delay
// panics: the past is immutable in a discrete-event simulation.
func (e *Engine) Schedule(delay Time, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %d at t=%d", delay, e.now))
	}
	e.At(e.now+delay, fn)
}

// At runs fn at absolute virtual time t (t must not precede Now).
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) before now=%d", t, e.now))
	}
	if fn == nil {
		panic("sim: At with nil fn")
	}
	e.push(t, funcAction(fn), 0, 0)
}

// ScheduleAction runs a.Act() after delay units of virtual time. It is
// the closure-free analogue of Schedule: the Action is stored by value.
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
	e.push(t, a, 0, 0)
}

// AtPayload is AtAction for an event carrying two words of payload:
// while a.Act() runs, Payload returns (p0, p1). One Action value can
// then serve every event of its kind, each event carrying its own
// arguments, where AtAction would need one Action value per event.
func (e *Engine) AtPayload(t Time, a Action, p0, p1 uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: AtPayload(%d) before now=%d", t, e.now))
	}
	if a == nil {
		panic("sim: AtPayload with nil Action")
	}
	e.push(t, a, p0, p1)
}

// Tally schedules n events at absolute virtual time t (t must not
// precede Now) that run nothing: the stand-in for n events whose
// Actions nobody would observe. The tally takes the FIFO place a push
// at t would take now, and Processed, Pending, NextEventAt and
// AdvanceTo count it exactly as n such events, so a Stop earlier in
// its instant leaves it pending and uncounted. It costs no entry while
// nothing is pushed at t behind it: it waits as a count behind t's
// last entry, and later tallies at t add to it. It becomes one entry
// carrying no Action when an event is pushed at t behind it, or at
// once when t lies beyond the wheel.
func (e *Engine) Tally(t Time, n int) {
	if t < e.now {
		panic(fmt.Sprintf("sim: Tally(%d) before now=%d", t, e.now))
	}
	if n < 1 {
		panic(fmt.Sprintf("sim: Tally of %d events", n))
	}
	e.tally(t, uint64(n))
}

// Payload returns the payload of the event firing now: the two words
// it was scheduled with by AtPayload, or zero for an At, Schedule,
// AtAction or ScheduleAction event. It is valid only while that
// event's Action runs, and means nothing while a Timer's callback
// runs: a Timer rides a guard entry whose payload is internal.
func (e *Engine) Payload() (uint64, uint64) { return e.arg[0], e.arg[1] }

// Step fires the single next event, or counts the next tally (see
// Tally) and fires nothing. It returns false when no events remain or
// the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	act := e.next(Time(math.MaxInt64))
	if act == nil {
		return false
	}
	act.Act()
	return true
}

// tallied is what next returns for a tally it counted: an Action that
// does nothing.
var tallied Action = funcAction(func() {})

// next takes the earliest live entry or tally due by deadline off the
// wheel and returns its Action (tallied for a tally), with the clock,
// the payload and Processed already moved to it; nil when nothing live
// is due, with the cursor then at the deadline at most (see seek).
// Stale guards met on the way are discarded. The entry is read in
// place and dropped before its Action runs, so a handler that
// schedules at the same instant appends behind it, possibly into the
// very chunk it came from. It is the fast path of both Step and
// RunUntil.
func (e *Engine) next(deadline Time) Action {
	w := &e.wheelSched
	for {
		s := &w.slots[int(w.base)&wheelMask]
		if s.head == nil {
			if s = w.seek(deadline); s == nil {
				return nil
			}
		}
		c := s.head
		en := &c.e[c.r]
		act := en.act
		if stale(act, en.p0) {
			w.excess--
			w.advance(s, c)
			continue
		}
		if w.base > deadline {
			return nil
		}
		if w.base < e.now {
			panic("sim: scheduler returned an event from the past")
		}
		if act == nil {
			e.processed += w.untally(s, c)
			e.now = w.base
			return tallied
		}
		e.arg[0], e.arg[1] = en.p0, en.p1
		w.advance(s, c)
		e.now = w.base
		e.processed++
		return act
	}
}

// Run fires events until none remain or Stop is called.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps <= deadline, then sets the clock
// to deadline (if it has not passed it already). When Stop fires
// mid-run the clock stays at the stopping event's time rather than
// jumping to the deadline. NextEventAt says what remains.
func (e *Engine) RunUntil(deadline Time) {
	for !e.stopped {
		act := e.next(deadline)
		if act == nil {
			if e.now < deadline {
				e.now = deadline
			}
			return
		}
		act.Act()
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
	if at, ok := e.nextAt(); ok && at < t {
		panic("sim: AdvanceTo would skip a pending event")
	}
	e.now = t
}

// NextEventAt returns the timestamp of the earliest pending live event
// (a stopped timer's guard is not one; a tallied event is); ok is false
// when nothing is pending or the engine is stopped. Windowed drivers
// (the machine's conservative-lookahead loop) use it to fast-forward
// across windows no shard has work in. It looks ahead without moving
// the scheduler's cursor, so a push between it and the next firing
// still lands at or after the cursor.
func (e *Engine) NextEventAt() (t Time, ok bool) {
	if e.stopped {
		return 0, false
	}
	return e.nextAt()
}

// Stop halts Run/RunUntil after the current event. Further Step calls
// return false. Pending events are retained (inspectable) but will not
// fire.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }
