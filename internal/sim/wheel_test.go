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

// cascadeSched is what driveRandom schedules its cascade on: a bare
// pending set under a minimal firing loop, or a real Engine.
type cascadeSched interface {
	at(t Time, fn func()) *Event
	atPayload(t Time, a Action, p0, p1 uint64)
	now() Time
	payload() (uint64, uint64)
	run()
}

// bareSched fires a pending set the way Engine.fire does: clock to the
// event's time, its payload exposed while its Action runs.
type bareSched struct {
	q   pendingSet
	t   Time
	seq uint64
	arg [2]uint64
}

func (b *bareSched) at(t Time, fn func()) *Event {
	ev := &Event{at: t, seq: b.seq, index: idxIdle, act: funcAction(fn)}
	b.seq++
	b.q.push(ev)
	return ev
}

func (b *bareSched) atPayload(t Time, a Action, p0, p1 uint64) {
	ev := &Event{at: t, seq: b.seq, index: idxIdle, act: a, arg: [2]uint64{p0, p1}}
	b.seq++
	b.q.push(ev)
}

func (b *bareSched) now() Time                 { return b.t }
func (b *bareSched) payload() (uint64, uint64) { return b.arg[0], b.arg[1] }

func (b *bareSched) run() {
	for ev := b.q.pop(); ev != nil; ev = b.q.pop() {
		if ev.canceled {
			continue
		}
		b.t = ev.at
		b.arg = ev.arg
		ev.act.Act()
	}
}

// engineSched runs the cascade on a real Engine, in RunUntil windows
// narrower than the wheel, so most events are taken by RunUntil's
// peek-then-pop path and the far ones wait out windows in the overflow.
type engineSched struct{ e *Engine }

func (s engineSched) at(t Time, fn func()) *Event { return s.e.At(t, fn) }
func (s engineSched) atPayload(t Time, a Action, p0, p1 uint64) {
	s.e.AtPayload(t, a, p0, p1)
}
func (s engineSched) now() Time                 { return s.e.Now() }
func (s engineSched) payload() (uint64, uint64) { return s.e.Payload() }

func (s engineSched) run() {
	for s.e.RunUntil(s.e.Now() + 97) {
	}
}

// driveRandom runs a self-expanding random event cascade on s and
// returns the firing log. All randomness flows from one seeded source
// whose draws happen in firing order, so two schedulers produce
// identical logs if and only if they fire events in the same order —
// any ordering divergence derails the cascade immediately. About a
// third of the events are payload events: one shared Action, each
// event carrying its own ID, depth and due time as payload, which the
// Action checks against the clock when it fires. Only closure events
// are cancelled (payload events return no handle).
func driveRandom(t *testing.T, s cascadeSched, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var id int
	var spawn func(depth int)
	probe := funcAction(func() {
		p0, p1 := s.payload()
		myID, depth := p0>>8, int(p0&0xff)
		if Time(p1) != s.now() {
			t.Errorf("payload event %d fired at %d carrying due time %d", myID, s.now(), p1)
		}
		log = append(log, fmt.Sprintf("p%d@%d", myID, s.now()))
		spawn(depth + 1)
	})
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
			at := s.now() + delay
			if rng.Intn(3) == 0 {
				s.atPayload(at, probe, uint64(myID)<<8|uint64(depth), uint64(at))
				continue
			}
			ev := s.at(at, func() {
				log = append(log, fmt.Sprintf("%d@%d", myID, s.now()))
				spawn(depth + 1)
			})
			// The root burst is never cancelled so every cascade fires.
			if rng.Intn(10) == 0 && depth > 0 {
				ev.Cancel()
			}
		}
	}
	spawn(0)
	s.run()
	return log
}

// TestSchedulerEquivalence pins the wheel's ordering guarantee against
// its reference: the two-tier wheel, and the Engine driving it, fire
// events in exactly a binary heap's (at, seq) order, across
// same-timestamp ties, wheel wraps, overflow drains and cancellations,
// with closure and payload events interleaved and every payload event
// reading back its own payload.
func TestSchedulerEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		heapLog := driveRandom(t, &bareSched{q: &eventHeap{}}, seed)
		if len(heapLog) == 0 {
			t.Fatalf("seed %d: empty cascade", seed)
		}
		payloads := 0
		for _, e := range heapLog {
			if e[0] == 'p' {
				payloads++
			}
		}
		if payloads == 0 {
			t.Fatalf("seed %d: no payload event fired", seed)
		}
		for name, s := range map[string]cascadeSched{
			"wheel":  &bareSched{q: newWheelSched()},
			"engine": engineSched{NewEngine(seed)},
		} {
			got := driveRandom(t, s, seed)
			if reflect.DeepEqual(heapLog, got) {
				continue
			}
			for i := 0; i < min(len(heapLog), len(got)); i++ {
				if heapLog[i] != got[i] {
					t.Fatalf("seed %d: %s firing order diverges at %d: heap %q vs %q", seed, name, i, heapLog[i], got[i])
				}
			}
			t.Fatalf("seed %d: %s log has %d entries, heap log %d", seed, name, len(got), len(heapLog))
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
