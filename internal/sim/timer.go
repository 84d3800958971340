package sim

import "fmt"

// Timer is a reusable single-shot scheduled callback — what the
// machine's PE service completions ride, and the one event a caller
// can take back: Stop disarms it immediately in O(1), after which it
// may be armed again. Every other event is an entry the scheduler
// holds by value, which nothing can cancel.
//
// The scheduler does not hold the Timer itself but a guard entry
// naming it and the arming it was pushed for. Stopping the Timer makes
// that guard stale, and the engine discards a stale guard when its
// time comes, without firing or counting it; Pending leaves stopped
// armings out. A Timer is single-occupancy: it panics if armed again
// while pending. Re-arming allocates nothing.
type Timer struct {
	eng *Engine
	fn  func()
	// gen counts the timer's armings and disarmings, so it is odd while
	// the timer is armed. A guard carries the gen of its arming and is
	// live only while gen still equals it.
	gen uint64
}

// timerGuard is a Timer seen as the Action of its guard entry, whose
// first payload word is the gen the timer was armed with. The scheduler
// discards a guard whose gen no longer matches; firing a live one
// disarms the timer and runs its callback.
type timerGuard Timer

func (g *timerGuard) Act() {
	g.gen++
	g.fn()
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
// entries point at it).
func (t *Timer) Init(eng *Engine, fn func()) {
	if fn == nil {
		panic("sim: Timer.Init with nil fn")
	}
	t.eng = eng
	t.fn = fn
}

// Schedule arms the timer to fire after delay units of virtual time.
func (t *Timer) Schedule(delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Timer.Schedule with negative delay %d at t=%d", delay, t.eng.now))
	}
	if t.armed() {
		panic("sim: Timer re-armed while pending")
	}
	t.gen++
	t.eng.push(t.eng.now+delay, (*timerGuard)(t), t.gen, 0)
}

// Stop disarms a pending timer; stopping an idle timer is a no-op. It
// reports whether a pending firing was averted.
func (t *Timer) Stop() bool {
	if !t.armed() {
		return false
	}
	t.gen++
	t.eng.stale++
	return true
}

// armed reports whether a firing is pending.
func (t *Timer) armed() bool { return t.gen&1 != 0 }
