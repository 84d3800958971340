package sim

import "testing"

func TestTimerFiresOnce(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	tm := NewTimer(e, func() { fired = append(fired, e.Now()) })
	tm.Schedule(10)
	if !tm.Armed() || tm.Next() != 10 {
		t.Fatalf("armed=%v next=%d, want true/10", tm.Armed(), tm.Next())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
	if tm.Armed() {
		t.Fatal("timer still armed after firing")
	}
}

func TestTimerRearmAfterFire(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	var tm *Timer
	tm = NewTimer(e, func() {
		fired = append(fired, e.Now())
		if len(fired) < 3 {
			tm.Schedule(5)
		}
	})
	tm.Schedule(5)
	e.Run()
	want := []Time{5, 10, 15}
	if len(fired) != 3 {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
}

func TestTimerStopAndRearm(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tm := NewTimer(e, func() { n++ })
	tm.Schedule(10)
	if !tm.Stop() {
		t.Fatal("Stop() = false on an armed timer")
	}
	if tm.Armed() {
		t.Fatal("timer armed after Stop")
	}
	if tm.Stop() {
		t.Fatal("Stop() = true on an idle timer")
	}
	// A stopped timer re-arms cleanly, and Pending leaves the stopped
	// arming out although its guard waits in the wheel until t=10.
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Stop, want 0", e.Pending())
	}
	tm.Schedule(20)
	e.Run()
	if n != 1 {
		t.Fatalf("fired %d times, want 1 (the re-armed firing)", n)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestTimerDoubleArmPanics(t *testing.T) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	tm.Schedule(5)
	defer func() {
		if recover() == nil {
			t.Fatal("re-arming a pending timer did not panic")
		}
	}()
	tm.Schedule(5)
}

func TestTimerValidation(t *testing.T) {
	e := NewEngine(1)
	for name, f := range map[string]func(){
		"nil fn":         func() { NewTimer(e, nil) },
		"negative delay": func() { NewTimer(e, func() {}).Schedule(-1) },
		"past At":        func() { e.Schedule(0, func() {}); e.Run(); NewTimer(e, func() {}).At(e.Now() - 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestTimerOrderingMatchesSchedule(t *testing.T) {
	// A timer armed after a Schedule at the same instant fires after it
	// (sequence order), exactly like two Schedules would.
	e := NewEngine(1)
	var order []string
	e.Schedule(5, func() { order = append(order, "event") })
	tm := NewTimer(e, func() { order = append(order, "timer") })
	tm.Schedule(5)
	e.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "timer" {
		t.Fatalf("order = %v, want [event timer]", order)
	}
}

// countAction exercises the Action path.
type countAction struct {
	e *Engine
	n int
	N int
}

func (a *countAction) Act() {
	a.n++
	if a.n < a.N {
		a.e.ScheduleAction(1, a)
	}
}

func TestScheduleActionFiresInOrder(t *testing.T) {
	e := NewEngine(1)
	a := &countAction{e: e, N: 100}
	e.ScheduleAction(1, a)
	e.Run()
	if a.n != 100 {
		t.Fatalf("action fired %d times, want 100", a.n)
	}
	if e.Processed() != 100 {
		t.Fatalf("Processed = %d, want 100", e.Processed())
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100", e.Now())
	}
}

func TestActionAndClosureInterleave(t *testing.T) {
	e := NewEngine(1)
	var order []int
	rec := &recordAction{order: &order, v: 2}
	e.Schedule(5, func() { order = append(order, 1) })
	e.AtAction(5, rec)
	e.Schedule(5, func() { order = append(order, 3) })
	e.Run()
	for i, want := range []int{1, 2, 3} {
		if order[i] != want {
			t.Fatalf("order = %v, want [1 2 3]", order)
		}
	}
}

type recordAction struct {
	order *[]int
	v     int
}

func (a *recordAction) Act() { *a.order = append(*a.order, a.v) }

func TestAtActionValidation(t *testing.T) {
	e := NewEngine(1)
	for name, f := range map[string]func(){
		"nil action":         func() { e.AtAction(0, nil) },
		"negative delay":     func() { e.ScheduleAction(-1, &countAction{e: e, N: 1}) },
		"nil payload action": func() { e.AtPayload(0, nil, 1, 2) },
		"payload in the past": func() {
			late := NewEngine(1)
			late.RunUntil(5)
			late.AtPayload(4, &countAction{e: late, N: 1}, 1, 2)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// payloadCount re-schedules itself as a payload event carrying its
// firing count, and counts the firings that read back anything else.
type payloadCount struct {
	e      *Engine
	n, bad uint64
}

func (a *payloadCount) Act() {
	if p0, p1 := a.e.Payload(); p0 != a.n || p1 != ^a.n {
		a.bad++
	}
	a.n++
	a.e.AtPayload(a.e.Now()+1, a, a.n, ^a.n)
}

// TestSteadyStateSchedulingAllocsNothing pins the PR 2 fast path: once
// the scheduler's chunks warm up, steady-state event turnover — a
// ticker firing, a self-rescheduling action, a self-rescheduling
// payload event, and a timer stopped and re-armed every window, whose
// stale guards pile up in the wheel until their time — performs zero
// allocations per event.
func TestSteadyStateSchedulingAllocsNothing(t *testing.T) {
	e := NewEngine(1)
	ticks := 0
	NewTicker(e, 10, 0, func() { ticks++ })
	a := &countAction{e: e, N: 1 << 30}
	e.ScheduleAction(1, a)
	p := &payloadCount{e: e}
	e.AtPayload(1, p, 0, ^uint64(0))
	stopped := 0
	tm := NewTimer(e, func() { stopped++ })
	tm.Schedule(70)
	window := func() {
		tm.Stop()
		tm.Schedule(70)
		e.RunUntil(e.Now() + 50)
	}
	for i := 0; i < 4; i++ {
		window() // warm up the chunks
	}

	allocs := testing.AllocsPerRun(100, window)
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocates %.1f per 50-unit window, want 0", allocs)
	}
	if ticks == 0 || a.n == 0 || p.n == 0 {
		t.Fatal("nothing fired")
	}
	if stopped != 0 {
		t.Fatalf("a timer stopped before every firing fired %d times", stopped)
	}
	if p.bad != 0 {
		t.Fatalf("%d of %d payload events read back another payload", p.bad, p.n)
	}
}

func TestPooledEventsDoNotCorruptCancelledHandles(t *testing.T) {
	// A cancelled public event and Action events share the scheduler;
	// the handle's Cancel must keep meaning that one logical event even
	// as chunks are reused around its guard.
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(50, func() { fired = true })
	a := &countAction{e: e, N: 40}
	e.ScheduleAction(1, a)
	e.RunUntil(10)
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired amid Action events")
	}
	if a.n != 40 {
		t.Fatalf("action fired %d, want 40", a.n)
	}
}
