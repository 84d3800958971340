package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"unsafe"
)

// TestEngineFillsWholeCacheLines pins the Engine's size: the engines
// of one sharded run sit back to back on the heap and run on different
// CPUs, so each must fill whole 64-byte cache lines — exactly two, with
// the clock and the wheel's hot fields in the first. A new field that
// breaks this needs padding to a whole line, or a field moved out.
func TestEngineFillsWholeCacheLines(t *testing.T) {
	if n := unsafe.Sizeof(Engine{}); n != 128 {
		t.Fatalf("Engine is %d bytes, want 128: two whole 64-byte cache lines", n)
	}
}

// TestEntryAndChunkLayout pins the scheduler's memory layout: every
// pending event is a 32-byte entry (an Action and two payload words),
// and a chunk of them fills its allocator size class exactly, so no
// chunk pays for bytes it cannot use.
func TestEntryAndChunkLayout(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n != 32 {
		t.Fatalf("entry is %d bytes, want 32", n)
	}
	if n := unsafe.Sizeof(chunk{}); n != chunkBytes {
		t.Fatalf("chunk is %d bytes, want %d", n, chunkBytes)
	}
	const n = 1000
	chunks := make([]*chunk, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range chunks {
		chunks[i] = new(chunk)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(chunks)
	// Anything else the runtime allocates meanwhile adds well under a
	// byte per chunk; a chunk rounded up to the next class adds 64.
	if per := float64(after.TotalAlloc-before.TotalAlloc) / n; per < chunkBytes || per >= chunkBytes+8 {
		t.Fatalf("a %d-byte chunk costs %.1f bytes: it does not fill its size class", chunkBytes, per)
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("Now = %d, want 30", e.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != 100 {
		t.Fatalf("fired %d events, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of insertion order: got[%d]=%d", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var trace []Time
	e.Schedule(10, func() {
		trace = append(trace, e.Now())
		e.Schedule(5, func() {
			trace = append(trace, e.Now())
			e.Schedule(0, func() { trace = append(trace, e.Now()) })
		})
	})
	e.Run()
	want := []Time{10, 15, 15}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, d := range []Time{5, 10, 15, 20} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(12)
	if at, ok := e.NextEventAt(); !ok || at != 15 {
		t.Fatalf("NextEventAt after RunUntil(12) = %d, %v; want 15, true", at, ok)
	}
	if len(fired) != 2 || fired[0] != 5 || fired[1] != 10 {
		t.Fatalf("fired = %v, want [5 10]", fired)
	}
	if e.Now() != 12 {
		t.Fatalf("Now = %d, want 12 after RunUntil(12)", e.Now())
	}
	e.RunUntil(100)
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt after RunUntil(100) = true, want false (drained)")
	}
	if len(fired) != 4 {
		t.Fatalf("fired %d events total, want 4", len(fired))
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %d, want 100 (clock advances to deadline)", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			n++
			if n == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if n != 3 {
		t.Fatalf("processed %d events after Stop, want 3", n)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false")
	}
	if e.Step() {
		t.Fatal("Step succeeded after Stop")
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Schedule(-1) did not panic")
		}
	}()
	NewEngine(1).Schedule(-1, func() {})
}

func TestAtPastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("At(past) did not panic")
		}
	}()
	e.At(5, func() {})
}

func TestNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At(nil fn) did not panic")
		}
	}()
	NewEngine(1).Schedule(0, nil)
}

func TestProcessedAndPending(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	if e.Pending() != 5 {
		t.Fatalf("Pending = %d, want 5", e.Pending())
	}
	e.Run()
	if e.Processed() != 5 {
		t.Fatalf("Processed = %d, want 5", e.Processed())
	}
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after Run, want 0", e.Pending())
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []int {
		e := NewEngine(seed)
		var order []int
		// Schedule events at random times drawn from the engine's stream.
		for i := 0; i < 200; i++ {
			i := i
			e.Schedule(Time(e.Rng().Intn(50)), func() { order = append(order, i) })
		}
		e.Run()
		return order
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("different lengths")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with equal seed diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// Property: for any set of delays, events fire in non-decreasing time
// order, ties in insertion order.
func TestQuickHeapOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		type rec struct {
			at  Time
			seq int
		}
		var fired []rec
		for i, d := range delays {
			i := i
			at := Time(d % 997)
			e.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRngDeterminism(t *testing.T) {
	a := NewEngine(99).Rng()
	b := NewEngine(99).Rng()
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("engines with equal seeds have different random streams")
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	delays := make([]Time, 1024)
	for i := range delays {
		delays[i] = Time(rng.Intn(1000))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewEngine(1)
		for _, d := range delays {
			e.Schedule(d, func() {})
		}
		e.Run()
	}
}

func BenchmarkHotLoop(b *testing.B) {
	// Self-rescheduling event: measures raw event dispatch cost.
	e := NewEngine(1)
	n := 0
	var step func()
	step = func() {
		n++
		if n < b.N {
			e.Schedule(1, step)
		}
	}
	e.Schedule(1, step)
	b.ResetTimer()
	e.Run()
}
