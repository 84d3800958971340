package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// cascadeSched is what driveRandom schedules its cascade on: the
// overflow heap under a bare firing loop (the ordering reference), or
// a real Engine.
type cascadeSched interface {
	at(t Time, fn func())
	atPayload(t Time, a Action, p0, p1 uint64)
	// tally schedules n events at t that run nothing.
	tally(t Time, n int)
	newTimer(fn func()) cascadeTimer
	now() Time
	payload() (uint64, uint64)
	// window fires every event due by deadline, moves the clock to
	// deadline and reports whether live events remain; after stop it
	// fires nothing more and leaves the clock where the stop was.
	window(deadline Time) bool
	// stop ends the run after the event firing now.
	stop()
	processed() uint64
	pending() int
}

// cascadeTimer is the part of Timer the cascade drives.
type cascadeTimer interface {
	At(at Time)
	Stop() bool
	Armed() bool
	Next() Time
}

// bareSched fires the overflow heap by itself, the way the engine
// fires its wheel: clock to the entry's time, its payload exposed while
// its Action runs. Stopped timers' armings stay in the heap as dead
// entries and are skipped when they surface; live counts the rest. A
// tally of n events is n entries whose Action does nothing.
type bareSched struct {
	h       entryHeap
	seq     uint64
	t       Time
	arg     [2]uint64
	fired   uint64
	live    int
	stopped bool
}

// nop is the Action of the reference's tallied events.
var nop = funcAction(func() {})

func (b *bareSched) push(t Time, a Action, p0, p1 uint64) {
	b.h.push(t, b.seq, a, p0, p1)
	b.seq++
	b.live++
}

// bareTimer is a Timer on the reference: each arming is its own entry,
// dead once the timer is stopped or armed again.
type bareTimer struct {
	b     *bareSched
	fn    func()
	gen   int
	armed bool
	next  Time
}

type bareArming struct {
	tm  *bareTimer
	gen int
}

func (a *bareArming) dead() bool { return !a.tm.armed || a.tm.gen != a.gen }
func (a *bareArming) Act()       { a.tm.armed = false; a.tm.fn() }

func (tm *bareTimer) At(at Time) {
	if tm.armed {
		panic("bareTimer re-armed while pending")
	}
	tm.gen++
	tm.armed, tm.next = true, at
	tm.b.push(at, &bareArming{tm, tm.gen}, 0, 0)
}

func (tm *bareTimer) Stop() bool {
	if !tm.armed {
		return false
	}
	tm.armed = false
	tm.b.live--
	return true
}

func (tm *bareTimer) Armed() bool { return tm.armed }
func (tm *bareTimer) Next() Time  { return tm.next }

func (b *bareSched) at(t Time, fn func())                      { b.push(t, funcAction(fn), 0, 0) }
func (b *bareSched) atPayload(t Time, a Action, p0, p1 uint64) { b.push(t, a, p0, p1) }
func (b *bareSched) newTimer(fn func()) cascadeTimer           { return &bareTimer{b: b, fn: fn} }
func (b *bareSched) now() Time                                 { return b.t }
func (b *bareSched) payload() (uint64, uint64)                 { return b.arg[0], b.arg[1] }
func (b *bareSched) stop()                                     { b.stopped = true }
func (b *bareSched) processed() uint64                         { return b.fired }
func (b *bareSched) pending() int                              { return b.live }

func (b *bareSched) tally(t Time, n int) {
	for ; n > 0; n-- {
		b.push(t, nop, 0, 0)
	}
}

func (b *bareSched) window(deadline Time) bool {
	for !b.stopped && len(b.h) > 0 && b.h[0].at <= deadline {
		top := b.h[0]
		b.h.pop()
		if a, ok := top.act.(*bareArming); ok && a.dead() {
			continue
		}
		b.t = top.at
		b.arg = [2]uint64{top.p0, top.p1}
		b.fired++
		b.live--
		top.act.Act()
	}
	if !b.stopped {
		b.t = max(b.t, deadline)
	}
	return b.live > 0
}

// engineSched runs the cascade on a real Engine, in windows narrower
// than the wheel, so the far events wait out windows in the overflow.
// With step set it drives each window through NextEventAt, Step and
// AdvanceTo instead of RunUntil. It fails the cascade when a push or
// tally lands behind the wheel's cursor: the cursor never passes the
// clock, so every push lands at or after it.
type engineSched struct {
	t    *testing.T
	e    *Engine
	step bool
}

func (s *engineSched) at(t Time, fn func()) {
	s.watch(t, func() { s.e.At(t, fn) })
}

func (s *engineSched) atPayload(t Time, a Action, p0, p1 uint64) {
	s.watch(t, func() { s.e.AtPayload(t, a, p0, p1) })
}

func (s *engineSched) tally(t Time, n int) {
	s.watch(t, func() { s.e.Tally(t, n) })
}

// watch runs push, a push or tally at t, after checking that t lies at
// or after the cursor.
func (s *engineSched) watch(t Time, push func()) {
	if base := s.e.base; t < base {
		s.t.Fatalf("a push at %d lands behind the cursor at %d (clock %d)", t, base, s.e.Now())
	}
	push()
}

func (s *engineSched) newTimer(fn func()) cascadeTimer {
	return &engineTimer{Timer: NewTimer(s.e, fn), s: s}
}
func (s *engineSched) now() Time                 { return s.e.Now() }
func (s *engineSched) payload() (uint64, uint64) { return s.e.Payload() }
func (s *engineSched) stop()                     { s.e.Stop() }
func (s *engineSched) processed() uint64         { return s.e.Processed() }
func (s *engineSched) pending() int              { return s.e.Pending() }

func (s *engineSched) window(deadline Time) bool {
	if !s.step {
		s.e.RunUntil(deadline)
		return s.e.Pending() > 0
	}
	for {
		t, ok := s.e.NextEventAt()
		if !ok || t > deadline {
			break
		}
		s.e.Step()
	}
	if s.e.Stopped() {
		return s.e.Pending() > 0
	}
	s.e.AdvanceTo(max(s.e.Now(), deadline))
	_, more := s.e.NextEventAt()
	return more
}

// engineTimer is a Timer seen through cascadeTimer: it keeps its
// arming's time, and checks an arming against the cursor like any push.
type engineTimer struct {
	*Timer
	s    *engineSched
	next Time
}

func (tm *engineTimer) At(at Time) {
	tm.next = at
	tm.s.watch(at, func() { tm.Schedule(at - tm.s.e.Now()) })
}

func (tm *engineTimer) Armed() bool { return tm.armed() }
func (tm *engineTimer) Next() Time  { return tm.next }

// opMix weighs driveRandom's choices, each chance out of 256.
type opMix struct {
	// delay weighs the delay classes: the same instant, near, inside
	// the wheel, just past it (overflow), deep overflow, and a shared
	// far instant on a 64-unit grid, which piles entries scheduled at
	// different times onto one slot.
	delay   [6]uint8
	payload uint8 // an event is a payload event
	stop    uint8 // a closure event rides a one-shot timer, stopped at once or later
	timer   uint8 // a firing stops, re-arms or arms one of the timers
	gap     uint8 // a window ends with a push (and perhaps a tally) into the gap after it, at or after the cursor
	tally   uint8 // a firing tallies events, at a drawn delay
	// halt, when nonzero, stops the run at a firing drawn from the
	// first 64·halt, if the cascade lasts that long.
	halt uint8
}

var defaultMix = opMix{delay: [6]uint8{2, 1, 1, 1, 1, 1}, payload: 85, stop: 40, timer: 90, gap: 160, tally: 100}

// mixFrom decodes an opMix from fuzz bytes; missing bytes read as
// zero, and all-zero delay weights as equal ones.
func mixFrom(b []byte) opMix {
	var raw [12]uint8
	copy(raw[:], b)
	m := opMix{payload: raw[6], stop: raw[7], timer: raw[8], gap: raw[9], tally: raw[10], halt: raw[11]}
	copy(m.delay[:], raw[:6])
	if m.delay == [6]uint8{} {
		m.delay = [6]uint8{1, 1, 1, 1, 1, 1}
	}
	return m
}

// driveRandom runs a self-expanding random event cascade on s in
// 97-unit windows and returns the log: every firing with the clock and
// Processed, and after every window, and at a stop, the clock,
// Processed and Pending. All randomness flows from one seeded source
// whose draws happen in firing order, so two schedulers produce
// identical logs if and only if they fire the same events in the same
// order and agree on the counts — any divergence derails the cascade
// at once. The cascade mixes closure events (some riding one-shot
// timers that are stopped), payload events (one shared Action, each
// event carrying its own ID, depth and due time, which the Action
// checks against the clock), four timers that are stopped, re-armed,
// and stopped then re-armed at the same instant, tallies at every
// delay class, pushes and tallies into the gap just after each window
// ends, before the next event due, and, under a halt, a Stop at a drawn firing right after that firing
// tallies events at its own instant, which must stay pending.
func driveRandom(t *testing.T, s cascadeSched, seed int64, mix opMix) []string {
	rng := rand.New(rand.NewSource(seed))
	chance := func(c uint8) bool { return rng.Intn(256) < int(c) }
	var delaySum int
	for _, w := range mix.delay {
		delaySum += int(w)
	}
	var (
		log     []string
		id      int
		handles []cascadeTimer
		timers  []cascadeTimer
		tfired  int
		spawn   func(depth int)
		firings int
		stopAt  int
		stopped bool
	)
	if mix.halt > 0 {
		stopAt = 1 + rng.Intn(64*int(mix.halt))
	}
	// fire logs a firing, and stops the run at the drawn one.
	fire := func(label string) {
		log = append(log, fmt.Sprintf("%s@%d#%d", label, s.now(), s.processed()))
		if firings++; firings == stopAt {
			s.tally(s.now(), 1+rng.Intn(3))
			s.stop()
			stopped = true
			log = append(log, fmt.Sprintf("halt@%d", s.now()))
		}
	}
	probe := funcAction(func() {
		p0, p1 := s.payload()
		myID, depth := p0>>8, int(p0&0xff)
		if Time(p1) != s.now() {
			t.Errorf("payload event %d fired at %d carrying due time %d", myID, s.now(), p1)
		}
		fire(fmt.Sprintf("p%d", myID))
		spawn(depth + 1)
	})
	delay := func() Time {
		k, r := 0, rng.Intn(delaySum)
		for r >= int(mix.delay[k]) {
			r -= int(mix.delay[k])
			k++
		}
		switch k {
		case 0:
			return 0 // same-timestamp FIFO pressure
		case 1:
			return Time(rng.Intn(20))
		case 2:
			return Time(rng.Intn(int(wheelSpan)))
		case 3:
			return wheelSpan + Time(rng.Intn(300)) // overflow tier
		case 4:
			return 3*wheelSpan + Time(rng.Intn(2000)) // deep overflow
		}
		far := s.now() + wheelSpan/2 + Time(rng.Intn(int(wheelSpan)))
		return far - far%64 + 64 - s.now()
	}
	// schedule adds one event at at whose firing spawns at depth+1.
	schedule := func(at Time, depth int) {
		myID := id
		id++
		if chance(mix.payload) {
			s.atPayload(at, probe, uint64(myID)<<8|uint64(depth), uint64(at))
			return
		}
		fn := func() {
			fire(fmt.Sprint(myID))
			spawn(depth + 1)
		}
		// The root burst is never stopped so every cascade fires.
		if depth == 0 || !chance(mix.stop) {
			s.at(at, fn)
			return
		}
		tm := s.newTimer(fn)
		tm.At(at)
		if rng.Intn(2) == 0 {
			tm.Stop()
		} else {
			handles = append(handles, tm)
		}
	}
	// operate stops, re-arms or arms one timer.
	operate := func() {
		tm := timers[rng.Intn(len(timers))]
		switch rng.Intn(4) {
		case 0:
			tm.Stop()
		case 1: // stop, then re-arm at the same instant
			if tm.Armed() {
				at := tm.Next()
				tm.Stop()
				tm.At(at)
			}
		case 2: // stop, then re-arm elsewhere
			tm.Stop()
			tm.At(s.now() + delay())
		case 3:
			if !tm.Armed() {
				tm.At(s.now() + delay())
			}
		}
	}
	spawn = func(depth int) {
		if depth > 3 {
			return
		}
		for n := rng.Intn(3) + 1; n > 0; n-- {
			schedule(s.now()+delay(), depth)
			if chance(mix.tally) {
				s.tally(s.now()+delay(), 1+rng.Intn(4))
			}
		}
		if len(handles) > 0 && chance(mix.stop) {
			handles[rng.Intn(len(handles))].Stop() // perhaps fired already
		}
		if chance(mix.timer) && tfired < 200 {
			operate()
		}
	}
	for k := 0; k < 4; k++ {
		var tm cascadeTimer
		tm = s.newTimer(func() {
			tfired++
			fire(fmt.Sprintf("T%d", k))
			spawn(3)
			if tfired < 200 && !tm.Armed() && rng.Intn(3) > 0 {
				tm.At(s.now() + delay())
			}
		})
		timers = append(timers, tm)
		tm.At(s.now() + delay())
	}
	spawn(0)
	for gaps, more := 0, true; more; {
		more = s.window(s.now() + 97)
		log = append(log, fmt.Sprintf("w@%d fired=%d pending=%d", s.now(), s.processed(), s.pending()))
		if stopped {
			break
		}
		if gaps < 100 && chance(mix.gap) {
			gaps++
			if chance(mix.tally) {
				s.tally(s.now()+Time(rng.Intn(60)), 1+rng.Intn(4))
			}
			schedule(s.now()+Time(rng.Intn(60)), 3)
			more = true
		}
	}
	return log
}

// TestSchedulerEquivalence pins the engine's ordering guarantee against
// its reference: the engine, whether driven by RunUntil or by
// NextEventAt and Step, fires events in exactly the overflow heap's
// (at, seq) order, across same-timestamp ties, chunk boundaries, wheel
// wraps, overflow drains, stopped and re-armed timers, tallies, and
// pushes into the gap after a window, which land at or after the
// wheel's cursor (engineSched.watch); its Processed matches the reference's at every firing, where a tally of
// n events counts as n no-op entries, and its Processed and Pending
// match after every window and at a stop; and every payload event
// reads back its own payload. Each seed runs to the end once and once
// more under a halt.
func TestSchedulerEquivalence(t *testing.T) {
	var halts int
	for seed := int64(1); seed <= 8; seed++ {
		for _, halt := range []uint8{0, 3} {
			mix := defaultMix
			mix.halt = halt
			heapLog := driveRandom(t, &bareSched{}, seed, mix)
			kinds := map[byte]int{}
			for _, e := range heapLog {
				kinds[e[0]]++
			}
			halts += kinds['h']
			if halt == 0 && (kinds['p'] == 0 || kinds['T'] == 0 || len(heapLog) < 100) {
				t.Fatalf("seed %d: %d log entries, %d payload and %d timer firings", seed, len(heapLog), kinds['p'], kinds['T'])
			}
			for _, step := range []bool{false, true} {
				s := &engineSched{t: t, e: NewEngine(seed), step: step}
				compareLogs(t, fmt.Sprintf("seed %d, halt %d, step %v", seed, halt, step), heapLog, driveRandom(t, s, seed, mix))
			}
		}
	}
	if halts == 0 {
		t.Fatal("no halted cascade stopped mid-cascade")
	}
	t.Logf("%d of 8 halted runs stopped mid-cascade", halts)
}

// FuzzSchedulerEquivalence runs driveRandom's comparison on a seed and
// op mix taken from the fuzz input.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{2, 1, 1, 1, 1, 1, 85, 40, 90, 160})
	f.Add(int64(2), []byte{0, 0, 0, 0, 0, 1, 0, 255, 255, 255})
	f.Add(int64(3), []byte{9, 0, 0, 0, 0, 0, 128})
	f.Add(int64(4), []byte{2, 1, 1, 1, 1, 1, 85, 40, 90, 160, 100, 3})
	f.Add(int64(5), []byte{6, 1, 0, 1, 0, 1, 40, 0, 60, 255, 255, 1})
	f.Fuzz(func(t *testing.T, seed int64, mixBytes []byte) {
		mix := mixFrom(mixBytes)
		want := driveRandom(t, &bareSched{}, seed, mix)
		for _, step := range []bool{false, true} {
			s := &engineSched{t: t, e: NewEngine(seed), step: step}
			compareLogs(t, fmt.Sprintf("step %v", step), want, driveRandom(t, s, seed, mix))
		}
	})
}

func compareLogs(t *testing.T, name string, want, got []string) {
	t.Helper()
	if reflect.DeepEqual(want, got) {
		return
	}
	for i := 0; i < min(len(want), len(got)); i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: engine diverges from the heap at entry %d: heap %q, engine %q", name, i, want[i], got[i])
		}
	}
	t.Fatalf("%s: engine log has %d entries, heap log %d", name, len(got), len(want))
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

// TestWheelTimerStopRecycle exercises stop-then-re-arm on both tiers:
// a Timer stopped while its guard sits in a wheel slot and while it
// sits in the overflow heap must disarm at once, and re-arm its one
// embedded Event without disturbing other events; the stale guards are
// discarded unfired and uncounted.
func TestWheelTimerStopRecycle(t *testing.T) {
	e := NewEngine(1)
	var fired []string
	tm := NewTimer(e, func() { fired = append(fired, fmt.Sprintf("timer@%d", e.Now())) })

	// Stop while in a wheel slot.
	tm.Schedule(5)
	if !tm.Stop() {
		t.Fatal("Stop on a wheel-chained timer reported no pending firing")
	}
	if tm.armed() {
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
	tm.Schedule(50)
	e.At(50, func() { fired = append(fired, "b") })
	e.Run()
	want := []string{"a", "timer@50", "b"}
	if !reflect.DeepEqual(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("%d events pending after Run", got)
	}
	if got := e.Processed(); got != 3 {
		t.Fatalf("Processed = %d after Run, want 3: a stale guard was counted", got)
	}
}

// TestWheelRunUntilTruthful mirrors the engine contract tests on the
// wheel: after RunUntil, NextEventAt reports the earliest live event
// left, and the clock lands on the deadline when RunUntil stops short
// of it.
func TestWheelRunUntilTruthful(t *testing.T) {
	e := NewEngine(1)
	var fired int
	e.At(10, func() { fired++ })
	e.At(3*wheelSpan, func() { fired++ })
	e.RunUntil(100)
	if at, ok := e.NextEventAt(); !ok || at != 3*wheelSpan {
		t.Fatalf("NextEventAt after RunUntil(100) = %d, %v; want the overflow event at %d", at, ok, 3*wheelSpan)
	}
	if fired != 1 || e.Now() != 100 {
		t.Fatalf("after RunUntil(100): fired=%d now=%d, want 1 fired at now=100", fired, e.Now())
	}
	e.RunUntil(4 * wheelSpan)
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt after RunUntil past the last event = true")
	}
	if fired != 2 || e.Now() != 4*wheelSpan {
		t.Fatalf("after final RunUntil: fired=%d now=%d", fired, e.Now())
	}
	// A stopped far-future timer is not "live pending".
	tm := NewTimer(e, func() { fired++ })
	tm.Schedule(4 * wheelSpan)
	tm.Stop()
	e.RunUntil(5 * wheelSpan)
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt = true with only a stopped timer pending")
	}
}

// TestWheelPushIntoGapAfterRunUntil pushes into the gap RunUntil leaves
// between its deadline and a far-future instant holding many entries:
// the cursor stops at the deadline, so the push lands in the window
// ahead of that instant, which drains from the overflow whole and in
// FIFO order, ahead of a later push at its time.
func TestWheelPushIntoGapAfterRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []string
	// A lands beyond the initial window (overflow), B even further; A's
	// instant holds 40 entries, closures and payload events, across
	// several chunks.
	e.At(3000, func() { fired = append(fired, "A") })
	rec := payloadRecorder{e: e, fired: &fired}
	for i := 1; i < 40; i++ {
		if i%3 == 0 {
			e.AtPayload(3000, &rec, uint64(i), 0)
			continue
		}
		e.At(3000, func() { fired = append(fired, fmt.Sprintf("A%d", i)) })
	}
	e.At(3000+wheelSpan-1, func() { fired = append(fired, "B") })
	// RunUntil stops the cursor at its deadline, with A's instant and B
	// still waiting in the overflow.
	e.RunUntil(10)
	if base := e.base; base != 10 {
		t.Fatalf("cursor at %d after RunUntil(10), want 10", base)
	}
	// The push at t=100 lands in the window; A's instant and B drain
	// in order as time advances, ahead of a later push at A's instant.
	e.At(100, func() {
		fired = append(fired, "C")
		e.At(3000, func() { fired = append(fired, "D") })
	})
	e.Run()
	want := []string{"C", "A"}
	for i := 1; i < 40; i++ {
		want = append(want, fmt.Sprintf("A%d", i))
	}
	want = append(want, "D", "B")
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

// payloadRecorder logs each payload event's first word as A<word>.
type payloadRecorder struct {
	e     *Engine
	fired *[]string
}

func (r *payloadRecorder) Act() {
	p0, _ := r.e.Payload()
	*r.fired = append(*r.fired, fmt.Sprintf("A%d", p0))
}

// TestTallyKeepsItsPlace pins a tally's FIFO place and its count on
// each path: waiting behind a slot's last entry, turned into an entry
// by a push behind it, past the wheel in the overflow and drained back
// behind an entry of its instant, and left pending by a Stop ahead of
// it.
func TestTallyKeepsItsPlace(t *testing.T) {
	e := NewEngine(1)
	var fired []string
	mark := func(name string) func() {
		return func() { fired = append(fired, fmt.Sprintf("%s#%d", name, e.Processed())) }
	}
	e.At(5, mark("a"))
	e.Tally(5, 2)
	e.Tally(5, 1) // adds to the waiting count
	e.At(5, mark("b"))
	e.Tally(5, 3) // waits behind b until its instant ends
	e.Tally(wheelSpan+40, 4)
	if got := e.Pending(); got != 12 {
		t.Fatalf("Pending = %d, want 12", got)
	}
	e.RunUntil(5)
	if got, want := fmt.Sprint(fired), "[a#1 b#5]"; got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	if e.Processed() != 8 || e.Pending() != 4 {
		t.Fatalf("after t=5: Processed %d, Pending %d; want 8 and 4", e.Processed(), e.Pending())
	}
	if at, ok := e.NextEventAt(); !ok || at != wheelSpan+40 {
		t.Fatalf("NextEventAt = %d, %v; want the overflow tally's instant %d", at, ok, wheelSpan+40)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AdvanceTo past a pending tally did not panic")
			}
		}()
		e.AdvanceTo(wheelSpan + 41)
	}()

	// A far instant holds an entry and a tally in the overflow; a push
	// into the gap after RunUntil fires first, and both drain back
	// ahead of an entry pushed at that instant later.
	far := 4 * wheelSpan
	e.At(far, mark("c"))
	e.Tally(far, 5)
	e.RunUntil(wheelSpan + 100)
	if e.Processed() != 12 {
		t.Fatalf("Processed = %d after the overflow tally's instant, want 12", e.Processed())
	}
	e.At(wheelSpan+200, func() {
		mark("d")()
		e.At(far, mark("f"))
	})
	e.Run()
	if got, want := fmt.Sprint(fired), "[a#1 b#5 d#13 c#14 f#20]"; got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	if e.Pending() != 0 || e.Processed() != 20 {
		t.Fatalf("after Run: Pending %d, Processed %d; want 0 and 20", e.Pending(), e.Processed())
	}

	// A Stop leaves the tallies behind the stopping event uncounted.
	e = NewEngine(1)
	e.Tally(7, 2)
	e.At(7, e.Stop)
	e.Tally(7, 3)
	e.At(7, func() { t.Fatal("an event behind the Stop fired") })
	e.RunUntil(100)
	if e.Processed() != 3 || e.Pending() != 4 || e.Now() != 7 {
		t.Fatalf("after the Stop: Processed %d, Pending %d, Now %d; want 3, 4 and 7", e.Processed(), e.Pending(), e.Now())
	}

	// Step counts a tally alone at its instant without firing anything.
	e = NewEngine(1)
	e.Tally(3, 2)
	e.At(9, func() {})
	if !e.Step() || e.Processed() != 2 || e.Now() != 3 {
		t.Fatalf("Step over a lone tally: Processed %d, Now %d; want 2 and 3", e.Processed(), e.Now())
	}
	if !e.Step() || e.Processed() != 3 || e.Now() != 9 || e.Step() {
		t.Fatalf("Step after the tally: Processed %d, Now %d; want 3 and 9, then no more", e.Processed(), e.Now())
	}
}
