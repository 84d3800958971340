package sim

import "fmt"

// Timer is a reusable single-shot scheduled callback: one embedded Event
// serves every arming, so steady-state rescheduling — tickers, PE
// service completions, arrival pumps — allocates nothing per firing.
//
// A Timer is single-occupancy: it panics if re-armed while pending.
// Stop disarms immediately in O(1), after which the timer may be armed
// again. The stop is lazy inside the scheduler — the old arming's guard
// stays until its time and is discarded then, without firing or being
// counted — but Pending is exact: it leaves stopped armings out.
type Timer struct {
	ev Event
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
// the Timer must not be copied after Init (the scheduler's guard
// entries point at the embedded Event).
func (t *Timer) Init(eng *Engine, fn func()) {
	if fn == nil {
		panic("sim: Timer.Init with nil fn")
	}
	t.ev.eng = eng
	t.ev.act = funcAction(fn)
}

// Schedule arms the timer to fire after delay units of virtual time.
func (t *Timer) Schedule(delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Timer.Schedule with negative delay %d at t=%d", delay, t.ev.eng.now))
	}
	t.At(t.ev.eng.now + delay)
}

// At arms the timer to fire at absolute virtual time at.
func (t *Timer) At(at Time) {
	if at < t.ev.eng.now {
		panic(fmt.Sprintf("sim: Timer.At(%d) before now=%d", at, t.ev.eng.now))
	}
	if t.ev.armed() {
		panic("sim: Timer re-armed while pending")
	}
	t.ev.arm(at)
}

// Stop disarms a pending timer; stopping an idle timer is a no-op. It
// reports whether a pending firing was averted.
func (t *Timer) Stop() bool {
	if !t.ev.armed() {
		return false
	}
	t.ev.disarm()
	return true
}

// Armed reports whether a firing is pending.
func (t *Timer) Armed() bool { return t.ev.armed() }

// Next returns the pending firing time; only meaningful while Armed.
func (t *Timer) Next() Time { return t.ev.at }
