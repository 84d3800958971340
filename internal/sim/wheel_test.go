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
	newTimer(fn func()) cascadeTimer
	now() Time
	payload() (uint64, uint64)
	// window fires every event due by deadline, moves the clock to
	// deadline and reports whether live events remain.
	window(deadline Time) bool
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
// entries and are skipped when they surface; live counts the rest.
type bareSched struct {
	h     entryHeap
	seq   uint64
	t     Time
	arg   [2]uint64
	fired uint64
	live  int
}

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
func (b *bareSched) processed() uint64                         { return b.fired }
func (b *bareSched) pending() int                              { return b.live }

func (b *bareSched) window(deadline Time) bool {
	for len(b.h) > 0 && b.h[0].at <= deadline {
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
	b.t = max(b.t, deadline)
	return b.live > 0
}

// engineSched runs the cascade on a real Engine, in windows narrower
// than the wheel, so the far events wait out windows in the overflow
// and each window's look-ahead leaves the wheel's cursor ahead of the
// clock. With step set it drives each window through NextEventAt, Step
// and AdvanceTo instead of RunUntil. It counts the pushes that landed
// behind the cursor (rewinds) and the entries they evicted.
type engineSched struct {
	e                *Engine
	step             bool
	rewinds, evicted int
}

func (s *engineSched) at(t Time, fn func()) {
	s.watch(t, func() { s.e.At(t, fn) })
}

func (s *engineSched) atPayload(t Time, a Action, p0, p1 uint64) {
	s.watch(t, func() { s.e.AtPayload(t, a, p0, p1) })
}

// watch runs push, a push at t, counting a rewind and its evictions.
func (s *engineSched) watch(t Time, push func()) {
	w := &s.e.wheelSched
	if t >= w.base {
		push()
		return
	}
	before := len(w.over)
	push()
	s.rewinds++
	s.evicted += len(w.over) - before
}

func (s *engineSched) newTimer(fn func()) cascadeTimer {
	return &engineTimer{Timer: NewTimer(s.e, fn), s: s}
}
func (s *engineSched) now() Time                 { return s.e.Now() }
func (s *engineSched) payload() (uint64, uint64) { return s.e.Payload() }
func (s *engineSched) processed() uint64         { return s.e.Processed() }
func (s *engineSched) pending() int              { return s.e.Pending() }

func (s *engineSched) window(deadline Time) bool {
	if !s.step {
		return s.e.RunUntil(deadline)
	}
	for {
		t, ok := s.e.NextEventAt()
		if !ok || t > deadline {
			break
		}
		s.e.Step()
	}
	s.e.AdvanceTo(max(s.e.Now(), deadline))
	_, more := s.e.NextEventAt()
	return more
}

// engineTimer is a Timer seen through cascadeTimer: it keeps its
// arming's time, and counts an arming behind the cursor like any push.
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
	gap     uint8 // a window ends with a push into the gap behind the cursor
}

var defaultMix = opMix{delay: [6]uint8{2, 1, 1, 1, 1, 1}, payload: 85, stop: 40, timer: 90, gap: 160}

// mixFrom decodes an opMix from fuzz bytes; missing bytes read as
// zero, and all-zero delay weights as equal ones.
func mixFrom(b []byte) opMix {
	var raw [10]uint8
	copy(raw[:], b)
	m := opMix{payload: raw[6], stop: raw[7], timer: raw[8], gap: raw[9]}
	copy(m.delay[:], raw[:6])
	if m.delay == [6]uint8{} {
		m.delay = [6]uint8{1, 1, 1, 1, 1, 1}
	}
	return m
}

// driveRandom runs a self-expanding random event cascade on s in
// 97-unit windows and returns the log: every firing, and after every
// window the clock, Processed and Pending. All randomness flows from
// one seeded source whose draws happen in firing order, so two
// schedulers produce identical logs if and only if they fire the same
// events in the same order and agree on the counts — any divergence
// derails the cascade at once. The cascade mixes closure events (some
// riding one-shot timers that are stopped), payload events (one shared
// Action, each event carrying its own ID, depth and due time, which the
// Action checks against the clock), four timers that are stopped,
// re-armed, and stopped then re-armed at the same instant, and pushes
// into the gap each window's look-ahead leaves between the clock and
// the wheel's cursor.
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
	)
	probe := funcAction(func() {
		p0, p1 := s.payload()
		myID, depth := p0>>8, int(p0&0xff)
		if Time(p1) != s.now() {
			t.Errorf("payload event %d fired at %d carrying due time %d", myID, s.now(), p1)
		}
		log = append(log, fmt.Sprintf("p%d@%d", myID, s.now()))
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
			log = append(log, fmt.Sprintf("%d@%d", myID, s.now()))
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
			log = append(log, fmt.Sprintf("T%d@%d", k, s.now()))
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
		if gaps < 100 && chance(mix.gap) {
			gaps++
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
// wraps, overflow drains, stopped and re-armed timers, and rewinds that
// evict whole instants back to the overflow; its Processed and Pending
// match the reference's after every window; and every payload event
// reads back its own payload.
func TestSchedulerEquivalence(t *testing.T) {
	var rewinds, evicted int
	for seed := int64(1); seed <= 8; seed++ {
		heapLog := driveRandom(t, &bareSched{}, seed, defaultMix)
		kinds := map[byte]int{}
		for _, e := range heapLog {
			kinds[e[0]]++
		}
		if kinds['p'] == 0 || kinds['T'] == 0 || len(heapLog) < 100 {
			t.Fatalf("seed %d: %d log entries, %d payload and %d timer firings", seed, len(heapLog), kinds['p'], kinds['T'])
		}
		for _, step := range []bool{false, true} {
			s := &engineSched{e: NewEngine(seed), step: step}
			compareLogs(t, fmt.Sprintf("seed %d, step %v", seed, step), heapLog, driveRandom(t, s, seed, defaultMix))
			rewinds += s.rewinds
			evicted += s.evicted
		}
	}
	if rewinds == 0 || evicted == 0 {
		t.Fatalf("the cascades rewound the wheel %d times, evicting %d entries; want both", rewinds, evicted)
	}
	t.Logf("%d rewinds evicted %d entries", rewinds, evicted)
}

// FuzzSchedulerEquivalence runs driveRandom's comparison on a seed and
// op mix taken from the fuzz input.
func FuzzSchedulerEquivalence(f *testing.F) {
	f.Add(int64(1), []byte{2, 1, 1, 1, 1, 1, 85, 40, 90, 160})
	f.Add(int64(2), []byte{0, 0, 0, 0, 0, 1, 0, 255, 255, 255})
	f.Add(int64(3), []byte{9, 0, 0, 0, 0, 0, 128})
	f.Fuzz(func(t *testing.T, seed int64, mixBytes []byte) {
		mix := mixFrom(mixBytes)
		want := driveRandom(t, &bareSched{}, seed, mix)
		for _, step := range []bool{false, true} {
			s := &engineSched{e: NewEngine(seed), step: step}
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
	// A stopped far-future timer is not "live pending".
	tm := NewTimer(e, func() { fired++ })
	tm.Schedule(4 * wheelSpan)
	tm.Stop()
	if e.RunUntil(5 * wheelSpan) {
		t.Fatal("RunUntil = true with only a stopped timer pending")
	}
}

// TestWheelRewindAfterRunUntil covers the cold push-behind-the-cursor
// path: RunUntil leaves the wheel's cursor parked on a far-future
// event's timestamp; scheduling into the gap must rewind the window
// (evicting the instants the narrower horizon cannot cover, each whole
// and in FIFO order) and preserve global ordering.
func TestWheelRewindAfterRunUntil(t *testing.T) {
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
	// The look-ahead inside RunUntil advances the cursor to t=3000 and
	// drains every event into the wheel.
	if !e.RunUntil(10) {
		t.Fatal("RunUntil(10) = false with events pending")
	}
	// Pushing at t=100 < cursor rewinds the window to [100, 100+span);
	// A's instant and B now lie beyond it and must be evicted back to
	// the overflow, then drain again in order as time advances, ahead
	// of a later push at A's instant.
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
