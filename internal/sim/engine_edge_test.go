package sim

import (
	"math/rand"
	"testing"
)

// TestHeapStressInterleaved exercises the scheduler with a long random
// interleaving of closure events, timer armings and timer stops, whose
// stale guards pile up among the live entries: Pending and the firing
// count must both equal the closures plus the timers left armed.
func TestHeapStressInterleaved(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	e := NewEngine(1)
	timers := make([]*Timer, 64)
	armed := make([]bool, len(timers))
	for i := range timers {
		timers[i] = NewTimer(e, func() { armed[i] = false })
	}
	want := 0
	for round := 0; round < 2000; round++ {
		i := rng.Intn(len(timers))
		switch rng.Intn(3) {
		case 0: // a closure event
			e.At(Time(rng.Intn(500)), func() {})
			want++
		case 1: // arm, or stop and re-arm elsewhere
			timers[i].Stop()
			timers[i].Schedule(Time(rng.Intn(500)))
			armed[i] = true
		case 2:
			if timers[i].Stop() != armed[i] {
				t.Fatalf("round %d: Stop on timer %d reported %v, want %v", round, i, !armed[i], armed[i])
			}
			armed[i] = false
		}
	}
	for _, a := range armed {
		if a {
			want++
		}
	}
	if got := e.Pending(); got != want {
		t.Fatalf("Pending = %d, want %d live", got, want)
	}
	fired := 0
	for e.Step() {
		fired++
	}
	if fired != want {
		t.Fatalf("fired %d events, want %d live", fired, want)
	}
}

func TestRunUntilExactEventTime(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(10, func() { fired = true })
	// Deadline exactly at the event: it must fire (<= semantics).
	e.RunUntil(10)
	if !fired {
		t.Fatal("event at the deadline did not fire")
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %d", e.Now())
	}
}

func TestRunUntilZero(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Schedule(0, func() { n++ })
	e.Schedule(1, func() { n++ })
	e.RunUntil(0)
	if n != 1 {
		t.Fatalf("fired %d events at t=0, want 1", n)
	}
}

func TestManySameTimeEventsScheduledDuringFire(t *testing.T) {
	// Events scheduled at the current instant from within a handler run
	// in the same instant, after already-queued ones.
	e := NewEngine(1)
	var order []string
	e.Schedule(5, func() {
		order = append(order, "a")
		e.Schedule(0, func() { order = append(order, "nested") })
	})
	e.Schedule(5, func() { order = append(order, "b") })
	e.Run()
	want := []string{"a", "b", "nested"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStopInsideRunUntil(t *testing.T) {
	e := NewEngine(1)
	n := 0
	e.Schedule(1, func() { n++; e.Stop() })
	e.Schedule(2, func() { n++ })
	e.RunUntil(100)
	// The event at t=2 is still pending, and Stopped says why it will
	// not fire.
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending = %d after the Stop, want the event at t=2", got)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop fired")
	}
	if n != 1 {
		t.Fatalf("fired %d, want 1", n)
	}
	if e.Now() != 1 {
		t.Fatalf("clock advanced to %d after Stop, want 1", e.Now())
	}
}

func TestStopInsideRunUntilDrainedHeap(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1, func() { e.Stop() })
	e.RunUntil(100)
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending = %d with nothing left after Stop", got)
	}
}
