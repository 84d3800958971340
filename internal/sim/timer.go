package sim

import "fmt"

// Timer is a reusable single-shot scheduled callback: one embedded Event
// serves every arming, so steady-state rescheduling — tickers, PE
// service completions, arrival pumps — allocates nothing per firing.
//
// A Timer is single-occupancy: it panics if re-armed while pending. Stop
// disarms immediately (removing the event from the heap, unlike the lazy
// Event.Cancel), after which the timer may be armed again.
type Timer struct {
	eng *Engine
	ev  Event
}

// NewTimer returns an idle timer firing fn when armed and elapsed.
func NewTimer(eng *Engine, fn func()) *Timer {
	t := &Timer{}
	t.Init(eng, fn)
	return t
}

// Init readies a zero-value Timer in place — the embedded-field
// analogue of NewTimer. Aggregates that hold their timer by value (one
// per PE, say) initialize it with Init and pay no per-timer allocation;
// the Timer must not be copied after Init (the scheduler holds a
// pointer to the embedded Event while armed).
func (t *Timer) Init(eng *Engine, fn func()) {
	if fn == nil {
		panic("sim: Timer.Init with nil fn")
	}
	t.eng = eng
	t.ev.act = funcAction(fn)
	t.ev.index = idxIdle
}

// Schedule arms the timer to fire after delay units of virtual time.
func (t *Timer) Schedule(delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Timer.Schedule with negative delay %d at t=%d", delay, t.eng.now))
	}
	t.At(t.eng.now + delay)
}

// At arms the timer to fire at absolute virtual time at.
func (t *Timer) At(at Time) {
	if at < t.eng.now {
		panic(fmt.Sprintf("sim: Timer.At(%d) before now=%d", at, t.eng.now))
	}
	if t.Armed() {
		panic("sim: Timer re-armed while pending")
	}
	t.ev.at = at
	t.ev.seq = t.eng.seq
	t.eng.seq++
	t.eng.sched.push(&t.ev)
}

// Stop disarms a pending timer; stopping an idle timer is a no-op. It
// reports whether a pending firing was averted.
func (t *Timer) Stop() bool {
	if !t.Armed() {
		return false
	}
	t.eng.sched.remove(&t.ev)
	return true
}

// Armed reports whether a firing is pending.
func (t *Timer) Armed() bool { return t.ev.index != idxIdle }

// Next returns the pending firing time; only meaningful while Armed.
func (t *Timer) Next() Time { return t.ev.at }
