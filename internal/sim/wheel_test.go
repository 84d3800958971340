package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// pendingSet is the push/pop surface shared by the wheel and the
// overflow heap, so one driver can fire the same cascade through either.
type pendingSet interface {
	push(ev *Event)
	pop() *Event
}

// driveRandom runs a self-expanding random event cascade through the
// given pending set and returns the firing log. All randomness flows
// from one seeded source whose draws happen in firing order, so two
// sets produce identical logs if and only if they fire events in the
// same order — any ordering divergence derails the cascade immediately.
func driveRandom(q pendingSet, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var now Time
	var seq uint64
	var log []string
	var id int
	var spawn func(depth int)
	spawn = func(depth int) {
		if depth > 3 {
			return
		}
		n := rng.Intn(3) + 1
		for i := 0; i < n; i++ {
			myID := id
			id++
			var delay Time
			switch rng.Intn(6) {
			case 0, 1:
				delay = 0 // same-timestamp FIFO pressure
			case 2:
				delay = Time(rng.Intn(20))
			case 3:
				delay = Time(rng.Intn(int(wheelSpan)))
			case 4:
				delay = wheelSpan + Time(rng.Intn(300)) // overflow tier
			case 5:
				delay = 3*wheelSpan + Time(rng.Intn(2000)) // deep overflow
			}
			ev := &Event{at: now + delay, seq: seq, index: idxIdle, fn: func() {
				log = append(log, fmt.Sprintf("%d@%d", myID, now))
				spawn(depth + 1)
			}}
			seq++
			q.push(ev)
			// The root burst is never cancelled so every cascade fires.
			if rng.Intn(10) == 0 && depth > 0 {
				ev.Cancel()
			}
		}
	}
	spawn(0)
	for ev := q.pop(); ev != nil; ev = q.pop() {
		if ev.canceled {
			continue
		}
		now = ev.at
		ev.fn()
	}
	return log
}

// TestSchedulerEquivalence pins the wheel's ordering guarantee against
// its reference: the two-tier wheel fires events in exactly a binary
// heap's (at, seq) order, across same-timestamp ties, wheel wraps,
// overflow drains and cancellations.
func TestSchedulerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		heapLog := driveRandom(&eventHeap{}, seed)
		wheelLog := driveRandom(newWheelSched(), seed)
		if len(heapLog) == 0 {
			t.Fatalf("seed %d: empty cascade", seed)
		}
		if !reflect.DeepEqual(heapLog, wheelLog) {
			for i := range heapLog {
				if i >= len(wheelLog) || heapLog[i] != wheelLog[i] {
					t.Fatalf("seed %d: firing order diverges at %d: heap %q vs wheel %q",
						seed, i, heapLog[i], wheelLog[i])
				}
			}
			t.Fatalf("seed %d: wheel log longer than heap log (%d vs %d)", seed, len(wheelLog), len(heapLog))
		}
	}
}

// TestWheelSameTimestampFIFOAcrossWrap schedules bursts at the same
// timestamp several full wheel revolutions apart: within each burst the
// firing order must be scheduling order (seq FIFO), including for the
// timestamps that reuse slots already wrapped past.
func TestWheelSameTimestampFIFOAcrossWrap(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	id := 0
	for rev := 0; rev < 3; rev++ {
		at := Time(rev) * (wheelSpan + 7) // same slot family, different revolutions
		for i := 0; i < 4; i++ {
			myID := id
			id++
			e.At(at, func() { fired = append(fired, myID) })
		}
	}
	e.Run()
	want := make([]int, id)
	for i := range want {
		want[i] = i
	}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("firing order %v, want strict scheduling order %v", fired, want)
	}
}

// TestWheelHeapToWheelDrainOrder pins the drain invariant: an event
// that waited in the overflow heap must fire before a same-timestamp
// event pushed directly into the wheel later (larger seq), because the
// drain lands it in the slot first.
func TestWheelHeapToWheelDrainOrder(t *testing.T) {
	e := NewEngine(1)
	target := 2*wheelSpan + 13
	var fired []string
	// Scheduled at t=0: beyond the window, so it parks in the overflow.
	e.At(target, func() { fired = append(fired, "early-seq") })
	// An intermediate event schedules the same timestamp once the target
	// is inside the window (the overflow has drained by then).
	e.At(target-10, func() {
		e.At(target, func() { fired = append(fired, "late-seq") })
	})
	e.Run()
	want := []string{"early-seq", "late-seq"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("drain order %v, want %v", fired, want)
	}
}

// TestWheelTimerStopRecycle exercises cancel-then-recycle safety on
// both tiers: a Timer stopped while chained in a wheel slot and while
// parked in the overflow heap must disarm cleanly and re-arm its one
// embedded Event without disturbing other events.
func TestWheelTimerStopRecycle(t *testing.T) {
	e := NewEngine(1)
	var fired []string
	tm := NewTimer(e, func() { fired = append(fired, fmt.Sprintf("timer@%d", e.Now())) })

	// Stop while in a wheel slot.
	tm.Schedule(5)
	if !tm.Stop() {
		t.Fatal("Stop on a wheel-chained timer reported no pending firing")
	}
	if tm.Armed() {
		t.Fatal("timer still armed after Stop")
	}
	// Stop while in the overflow heap.
	tm.Schedule(wheelSpan + 100)
	if !tm.Stop() {
		t.Fatal("Stop on an overflow timer reported no pending firing")
	}
	// Re-arm between two neighbors at the same timestamp: FIFO by seq
	// puts the re-armed timer after a, before b.
	e.At(50, func() { fired = append(fired, "a") })
	tm.At(50)
	e.At(50, func() { fired = append(fired, "b") })
	e.Run()
	want := []string{"a", "timer@50", "b"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("%d events pending after Run", got)
	}
}

// TestWheelRunUntilTruthful mirrors the engine contract tests on the
// wheel: RunUntil reports whether live events remain pending, and the
// clock lands on the deadline when it stops short of them.
func TestWheelRunUntilTruthful(t *testing.T) {
	e := NewEngine(1)
	var fired int
	e.At(10, func() { fired++ })
	e.At(3*wheelSpan, func() { fired++ })
	if !e.RunUntil(100) {
		t.Fatal("RunUntil(100) = false with an overflow event pending")
	}
	if fired != 1 || e.Now() != 100 {
		t.Fatalf("after RunUntil(100): fired=%d now=%d, want 1 fired at now=100", fired, e.Now())
	}
	if e.RunUntil(4 * wheelSpan) {
		t.Fatal("RunUntil past the last event = true")
	}
	if fired != 2 || e.Now() != 4*wheelSpan {
		t.Fatalf("after final RunUntil: fired=%d now=%d", fired, e.Now())
	}
	// A cancelled far-future event is not "live pending".
	ev := e.At(8*wheelSpan, func() { fired++ })
	ev.Cancel()
	if e.RunUntil(5 * wheelSpan) {
		t.Fatal("RunUntil = true with only a cancelled event pending")
	}
}

// TestWheelRewindAfterRunUntil covers the cold push-behind-the-cursor
// path: RunUntil leaves the wheel's cursor parked on a far-future
// event's timestamp; scheduling into the gap must rewind the window
// (evicting chained events the narrower horizon cannot cover) and
// preserve global ordering.
func TestWheelRewindAfterRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []string
	// A lands beyond the initial window (overflow), B even further.
	e.At(3000, func() { fired = append(fired, "A") })
	e.At(3000+wheelSpan-1, func() { fired = append(fired, "B") })
	// The peek inside RunUntil advances the cursor to t=3000 and drains
	// both events into the wheel.
	if !e.RunUntil(10) {
		t.Fatal("RunUntil(10) = false with events pending")
	}
	// Pushing at t=100 < cursor rewinds the window to [100, 100+span);
	// A and B now lie beyond it and must be evicted back to the
	// overflow, then drain again in order as time advances.
	e.At(100, func() { fired = append(fired, "C") })
	e.Run()
	want := []string{"C", "A", "B"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

// TestWheelPendingCount checks size accounting across both tiers and
// through drains.
func TestWheelPendingCount(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.At(Time(i), func() {})
	}
	for i := 0; i < 5; i++ {
		e.At(2*wheelSpan+Time(i), func() {})
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending = %d, want 10", got)
	}
	e.RunUntil(wheelSpan)
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending after near tier = %d, want 5", got)
	}
	e.Run()
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending after Run = %d, want 0", got)
	}
}
