package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// ticker is the shape in which the machine runs every periodic process
// (machine.procTick, behind Machine.NewTicker and the utilization
// sampler): one Action serves every process, and each pending firing is
// a payload event naming the process's callback and its period. It runs
// the callback, then re-arms one period later. The tests below pin the
// engine behaviour that shape relies on.
type ticker struct {
	e   *Engine
	fns []func()
}

func (k *ticker) Act() {
	i, period := k.e.Payload()
	k.fns[i]()
	k.e.AtPayload(k.e.Now()+Time(period), k, i, period)
}

// every arms fn as a process of the given period, first firing phase
// units from now.
func (k *ticker) every(period, phase Time, fn func()) {
	k.fns = append(k.fns, fn)
	k.e.AtPayload(k.e.Now()+phase, k, uint64(len(k.fns)-1), uint64(period))
}

// TestTickerFiresPeriodically: a process fires exactly one period
// apart, RunUntil's deadline included, and holds one pending entry
// however long it runs; a period past the wheel's window, re-armed
// through the overflow heap each time, keeps its spacing too.
func TestTickerFiresPeriodically(t *testing.T) {
	e := NewEngine(1)
	k := &ticker{e: e}
	var short, long []Time
	k.every(20, 0, func() { short = append(short, e.Now()) })
	k.every(3*wheelSpan, 0, func() { long = append(long, e.Now()) })
	e.RunUntil(100)
	if want := []Time{0, 20, 40, 60, 80, 100}; !reflect.DeepEqual(short, want) {
		t.Fatalf("fired at %v, want %v", short, want)
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d with two processes armed, want 2", e.Pending())
	}
	e.RunUntil(9 * wheelSpan)
	if want := []Time{0, 3 * wheelSpan, 6 * wheelSpan, 9 * wheelSpan}; !reflect.DeepEqual(long, want) {
		t.Fatalf("long-period process fired at %v, want %v", long, want)
	}
	if n := len(short); n != int(9*wheelSpan/20)+1 || short[n-1] != Time(n-1)*20 {
		t.Fatalf("short-period process fired %d times, last at %d", n, short[n-1])
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d after the long run, want 2", e.Pending())
	}
}

// TestTickerPhase: a process armed with a phase first fires that far
// from now, then one period apart. Because it re-arms after its
// callback, an event the callback schedules for the next firing's
// instant fires before that firing; an event scheduled before the
// process was armed fires before the tick it shares an instant with.
func TestTickerPhase(t *testing.T) {
	e := NewEngine(1)
	k := &ticker{e: e}
	var log []string
	e.At(7, func() { log = append(log, "early@7") })
	k.every(20, 7, func() {
		now := e.Now()
		log = append(log, fmt.Sprintf("tick@%d", now))
		e.At(now+20, func() { log = append(log, fmt.Sprintf("echo@%d", now+20)) })
	})
	e.RunUntil(50)
	want := []string{"early@7", "tick@7", "echo@27", "tick@27", "echo@47", "tick@47"}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("firing order %v, want %v", log, want)
	}
}

// TestTickerBadArgsPanic: a negative phase arms before now and a
// negative period re-arms before now, and the engine refuses both. A
// zero period re-arms at the same instant forever, which the engine
// cannot tell from legitimate same-instant work; Machine.NewTicker
// refuses it at registration (machine TestPeriodicProcess).
func TestTickerBadArgsPanic(t *testing.T) {
	for _, tc := range []struct{ period, phase Time }{{-5, 0}, {5, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("period %d, phase %d did not panic", tc.period, tc.phase)
				}
			}()
			e := NewEngine(1)
			(&ticker{e: e}).every(tc.period, tc.phase, func() {})
			e.RunUntil(10)
		}()
	}
}
