package sim

// wheelSched is the two-tier scheduler: a calendar-queue-style bucket
// wheel for the near future backed by an overflow min-heap for the far
// future.
//
// The wheel covers the half-open window [base, base+wheelSpan) of
// virtual time with one slot per time unit (wheelSpan slots, power of
// two, indexed by at&wheelMask). Because time is integral and the
// window equals the slot count, every slot holds events of exactly one
// timestamp, chained in a doubly-linked FIFO — so (at, seq) ordering
// degenerates to "append on push, pop from the head", O(1) with no
// comparisons. Events beyond the window land in the overflow heap and
// drain into the wheel as the window advances; a drain pops the heap in
// (at, seq) order into slots that are empty by construction (their
// previous occupants fired a full revolution ago), and any later push
// for the same timestamp appends behind the drained events with a
// larger seq — so the per-slot FIFO is globally seq-ordered and the
// two-tier structure reproduces the heap's event order bit for bit
// (pinned by TestSchedulerEquivalence).
//
// Where each tier wins: the wheel turns the O(log n) heap
// percolation of every push/pop — dominated by Timer re-arm traffic
// (service completions, tickers, arrival pumps) and by control-heavy
// machines keeping thousands of events resident — into pointer
// appends, at the cost of stepping the cursor over empty slots
// (cheap: one nil check per unit of virtual time) and of 16 bytes per
// slot of standing memory. The wheel measured 1.8-3.7x a standing
// binary heap's events/sec on every perf-ledger case, which is why the
// heap survives only as the overflow tier.
const (
	wheelBits = 11
	wheelSpan = Time(1) << wheelBits // window width and slot count
	wheelMask = int(wheelSpan - 1)
)

// wheelSlot is one bucket: a FIFO chain of events sharing a timestamp.
type wheelSlot struct {
	head, tail *Event
}

type wheelSched struct {
	slots []wheelSlot
	base  Time // time of the cursor slot; wheel events lie in [base, base+wheelSpan)
	cur   int  // slot index of base (== int(base)&wheelMask)
	count int  // events chained in the wheel (cancelled included)
	over  eventHeap
}

func newWheelSched() *wheelSched {
	return &wheelSched{slots: make([]wheelSlot, wheelSpan)}
}

func (w *wheelSched) size() int { return w.count + len(w.over) }

func (w *wheelSched) push(ev *Event) {
	if ev.at < w.base {
		// Cold path: the cursor settled on a later event's time and a
		// fresh push targets the gap (possible after RunUntil stops the
		// clock short of the next event). Rewind the window.
		w.rewind(ev.at)
	}
	if ev.at < w.base+wheelSpan {
		w.chain(ev)
	} else {
		w.over.push(ev)
	}
}

// chain appends the event to its slot's FIFO.
func (w *wheelSched) chain(ev *Event) {
	s := &w.slots[int(ev.at)&wheelMask]
	ev.index = idxWheel
	ev.next = nil
	ev.prev = s.tail
	if s.tail == nil {
		s.head = ev
	} else {
		s.tail.next = ev
	}
	s.tail = ev
	w.count++
}

// unlink removes a chained event from its slot.
func (w *wheelSched) unlink(s *wheelSlot, ev *Event) {
	if ev.prev == nil {
		s.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		s.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev = nil, nil
	ev.index = idxIdle
	w.count--
}

// drain moves overflow events that now fall inside the window onto
// their slots. The heap yields them in (at, seq) order and their slots
// are still empty of later pushes, so chain order stays seq order.
func (w *wheelSched) drain() {
	horizon := w.base + wheelSpan
	for len(w.over) > 0 && w.over[0].at < horizon {
		w.chain(w.over.pop())
	}
}

// seek positions the cursor on the earliest non-empty slot, advancing
// the window (and draining the overflow) across empty slots, and
// returns that slot — nil when nothing is pending. When the wheel is
// empty the window jumps straight to the overflow's earliest timestamp
// instead of stepping.
func (w *wheelSched) seek() *wheelSlot {
	if w.count == 0 {
		if len(w.over) == 0 {
			return nil
		}
		w.base = w.over[0].at
		w.cur = int(w.base) & wheelMask
		w.drain()
	}
	for {
		if s := &w.slots[w.cur]; s.head != nil {
			return s
		}
		w.cur = (w.cur + 1) & wheelMask
		w.base++
		w.drain()
	}
}

// rewind moves the window start back to t (t < base), evicting any
// chained event that the narrower horizon can no longer cover back to
// the overflow heap. Only reachable when the cursor ran ahead of the
// clock (seek stops on the next event's time) and a later push targets
// the gap — never on the fire path, so the O(wheelSpan) sweep is
// irrelevant to steady-state cost.
func (w *wheelSched) rewind(t Time) {
	if w.count > 0 {
		horizon := t + wheelSpan
		for i := range w.slots {
			s := &w.slots[i]
			if s.head == nil || s.head.at < horizon {
				continue
			}
			for ev := s.head; ev != nil; {
				next := ev.next
				ev.next, ev.prev = nil, nil
				w.over.push(ev)
				w.count--
				ev = next
			}
			s.head, s.tail = nil, nil
		}
	}
	w.base = t
	w.cur = int(t) & wheelMask
}

// pop removes and returns the earliest event, or nil if empty.
// Cancelled events may be returned; the engine skips them.
func (w *wheelSched) pop() *Event {
	s := w.seek()
	if s == nil {
		return nil
	}
	ev := s.head
	w.unlink(s, ev)
	return ev
}

// popPeeked removes ev, the event peek just returned, from the head of
// the cursor slot, where peek left it — pop without a second seek.
func (w *wheelSched) popPeeked(ev *Event) {
	w.unlink(&w.slots[w.cur], ev)
}

// peek returns the next live event without removing it, discarding any
// cancelled events encountered at the front.
func (w *wheelSched) peek() *Event {
	for {
		s := w.seek()
		if s == nil {
			return nil
		}
		ev := s.head
		if !ev.canceled {
			return ev
		}
		w.unlink(s, ev)
	}
}

// remove deletes a scheduled event: an O(1) unlink for a chained event,
// an O(log n) indexed removal for an overflow event.
func (w *wheelSched) remove(ev *Event) {
	if ev.index == idxWheel {
		w.unlink(&w.slots[int(ev.at)&wheelMask], ev)
		return
	}
	w.over.removeAt(int(ev.index))
}
