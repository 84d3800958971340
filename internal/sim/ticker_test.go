package sim

import "testing"

func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	tk := NewTicker(e, 20, 0, func() { times = append(times, e.Now()) })
	e.RunUntil(100)
	want := []Time{0, 20, 40, 60, 80, 100}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
	if tk.Firings() != uint64(len(want)) {
		t.Fatalf("Firings = %d, want %d", tk.Firings(), len(want))
	}
}

func TestTickerPhase(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	NewTicker(e, 20, 7, func() { times = append(times, e.Now()) })
	e.RunUntil(50)
	want := []Time{7, 27, 47}
	if len(times) != len(want) {
		t.Fatalf("fired at %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired at %v, want %v", times, want)
		}
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	var tk *Ticker
	tk = NewTicker(e, 10, 0, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.RunUntil(1000)
	if n != 3 {
		t.Fatalf("ticker fired %d times after Stop at 3, want 3", n)
	}
	if e.Pending() != 0 {
		t.Fatalf("stopped ticker left %d live events pending", e.Pending())
	}
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("stopped ticker left a live event to fire")
	}
}

func TestTickerStopExternally(t *testing.T) {
	e := NewEngine(1)
	n := 0
	tk := NewTicker(e, 10, 0, func() { n++ })
	e.Schedule(35, func() { tk.Stop() })
	e.Run()
	if n != 4 { // t=0,10,20,30
		t.Fatalf("ticker fired %d times, want 4", n)
	}
	if tk.Period() != 10 {
		t.Fatalf("Period = %d, want 10", tk.Period())
	}
}

func TestTickerBadArgsPanic(t *testing.T) {
	e := NewEngine(1)
	for _, tc := range []struct{ period, phase Time }{{0, 0}, {-5, 0}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewTicker(%d,%d) did not panic", tc.period, tc.phase)
				}
			}()
			NewTicker(e, tc.period, tc.phase, func() {})
		}()
	}
}
