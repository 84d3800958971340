package sim

// wheelSched is the two-tier scheduler: a calendar-queue-style bucket
// wheel for the near future backed by an overflow min-heap for the far
// future. Both tiers hold events by value, as entries.
//
// The wheel covers the half-open window [base, base+wheelSpan) of
// virtual time with one slot per time unit (wheelSpan slots, power of
// two, indexed by at&wheelMask). Because time is integral and the
// window equals the slot count, every slot holds entries of exactly one
// timestamp, in a FIFO of chunks — so (at, seq) ordering degenerates to
// "append on push, read from the head", O(1) with no comparisons.
// Entries beyond the window land in the overflow heap and drain into
// the wheel as the window advances; a drain pops the heap in (at, seq)
// order into slots that are empty by construction (their previous
// occupants fired a full revolution ago), and any later push for the
// same timestamp appends behind the drained entries — so each slot's
// FIFO is in push order and the two-tier structure reproduces the
// heap's event order bit for bit (pinned by TestSchedulerEquivalence).
// All entries and tallies of one instant sit in one tier: an instant
// enters the wheel whole when the horizon passes it.
//
// The cursor never passes the clock. The fire path moves it only onto
// the instant it fires, or up to RunUntil's deadline where the clock
// then lands, and NextEventAt and AdvanceTo look ahead without moving
// it. Every push and tally targets now or later, so it lands at or
// after the cursor: in the window, or past it in the overflow, and the
// window never has to move back.
//
// Where each tier wins: the wheel turns the O(log n) heap percolation
// of every push/pop — dominated by load words, periodic processes,
// service completions and control-heavy machines keeping thousands of
// events resident — into a 32-byte store into a chunk, at the cost of
// stepping the cursor over empty slots (cheap: one nil check per unit
// of virtual time) and of 16 bytes per slot of standing memory plus
// one chunk per occupied slot. The wheel measured
// 1.8-3.7x a standing binary heap's events/sec on every perf-ledger
// case, which is why the heap survives only as the overflow tier.
const (
	wheelBits = 11
	wheelSpan = Time(1) << wheelBits // window width and slot count
	wheelMask = int(wheelSpan - 1)
)

// entry is one scheduled event, held by value: the Action firing runs
// and the two payload words it reads through Engine.Payload. A Timer's
// arming rides as a guard entry (see timerGuard).
type entry struct {
	act    Action
	p0, p1 uint64
}

// A chunk is chunkBytes: its header and chunkLen entries, padded to
// the allocator size class it would be rounded up to anyway
// (TestEntryAndChunkLayout). 512 bytes is the largest pointer-bearing
// object the Go allocator serves without an 8-byte header (a 2 KB
// chunk costs 2,304 bytes), and small chunks keep a sparse wheel — a
// small machine with one or two events per occupied instant, which
// pays a chunk per instant — within its memory budget.
const (
	chunkBytes = 512
	chunkHead  = 24 // next, r, n, tally
	chunkLen   = (chunkBytes - chunkHead) / 32
)

// chunk is one link of a slot's FIFO: entries r..n-1 are pending, and
// on the slot's tail chunk, tally events wait behind entry n-1 (see
// wheelSched.tally). A tail whose entries have all fired while a tally
// still waits is kept for the tally with r and n reset to zero; its
// entry 0 is then cleared, so the fire path meets a nil Action there,
// as it does for a tally that is an entry of its own. Emptied chunks
// park on the scheduler's spare list, so steady-state scheduling
// allocates nothing.
//
//simlint:pooled
type chunk struct {
	e     [chunkLen]entry //simlint:keep each entry's Action is cleared as it is read
	next  *chunk
	r, n  int32
	tally uint64
	_     [chunkBytes - chunkHead - chunkLen*32]byte
}

// wheelSlot is one bucket: the chunk FIFO of entries sharing a
// timestamp.
type wheelSlot struct {
	head, tail *chunk
}

// wheelSched is the scheduler's state, held by value in the Engine.
// The cursor is the slot of base, int(base)&wheelMask.
type wheelSched struct {
	slots *[wheelSpan]wheelSlot
	base  Time // time of the cursor slot; wheel entries lie in [base, base+wheelSpan)
	// count is the events the wheel holds: one per entry, stale guards
	// included, and n per tally of n events.
	count int
	// excess is how many more entries the two tiers hold than the events
	// they stand for, which size takes away: one per guard of a stopped
	// timer not discarded yet, in either tier, less n-1 per overflow
	// entry tallying n events.
	excess int
	seq    uint64 // the next overflow key
	over   entryHeap
	spare  *chunk // emptied chunks, linked through next
}

// size is the number of live events pending, tallied ones included.
func (w *wheelSched) size() int { return w.count + len(w.over) - w.excess }

// push schedules act with payload (p0, p1) at time at, which lies at
// or after the cursor (base never passes the clock). It takes the
// fields one by one: handing a whole entry down by value stalls the
// store into the chunk on store forwarding.
func (w *wheelSched) push(at Time, act Action, p0, p1 uint64) {
	if at-w.base >= wheelSpan {
		w.over.push(at, w.seq, act, p0, p1)
		w.seq++
		return
	}
	w.append(&w.slots[int(at)&wheelMask], act, p0, p1)
}

// tally counts n events that run nothing at time at, in the FIFO place
// a push at at would take now. In the window they wait as a count
// behind the slot's last entry, where later tallies add to it; only an
// entry appended behind them (append) turns them into an entry of their
// own: a nil Action carrying n in p0. Past the window they are such an
// entry at once, in the overflow.
func (w *wheelSched) tally(at Time, n uint64) {
	if at-w.base >= wheelSpan {
		w.over.push(at, w.seq, nil, n, 0)
		w.seq++
		w.excess -= int(n) - 1
		return
	}
	w.addTally(&w.slots[int(at)&wheelMask], n)
}

// addTally counts n events behind the last entry of slot s.
func (w *wheelSched) addTally(s *wheelSlot, n uint64) {
	c := s.tail
	if c == nil {
		c = w.grow(s)
	}
	c.tally += n
	w.count += int(n)
}

// append adds an entry at the tail of slot s's FIFO.
func (w *wheelSched) append(s *wheelSlot, act Action, p0, p1 uint64) {
	c := s.tail
	switch {
	case c == nil:
		c = w.grow(s)
	case c.n == chunkLen || c.tally != 0:
		c = w.room(s)
	}
	en := &c.e[c.n]
	en.act, en.p0, en.p1 = act, p0, p1
	c.n++
	w.count++
}

// room returns slot s's tail chunk with room for one more entry,
// growing the FIFO as needed. A tally waiting behind the tail becomes
// an entry of its own first, so the new entry fires after it.
func (w *wheelSched) room(s *wheelSlot) *chunk {
	c := s.tail
	if c != nil && c.tally != 0 {
		n := c.tally
		c.tally = 0
		if c.n == chunkLen {
			c = w.grow(s)
		}
		c.e[c.n] = entry{p0: n}
		c.n++
	}
	if c == nil || c.n == chunkLen {
		c = w.grow(s)
	}
	return c
}

// grow links a chunk from the spare list, or a new one, behind s's
// tail.
func (w *wheelSched) grow(s *wheelSlot) *chunk {
	c := w.spare
	if c != nil {
		w.spare = c.next
		c.next = nil
	} else {
		c = new(chunk)
	}
	if s.tail == nil {
		s.head = c
	} else {
		s.tail.next = c
	}
	s.tail = c
	return c
}

// advance drops the head entry of slot s, whose head chunk is c,
// releasing c once it is used up.
func (w *wheelSched) advance(s *wheelSlot, c *chunk) {
	c.e[c.r].act = nil
	c.r++
	w.count--
	if c.r == c.n {
		if c.tally != 0 {
			// c is the tail, and a tally waits behind its last entry:
			// keep c for the tally alone.
			c.r, c.n = 0, 0
			return
		}
		// A chunk short of full is the tail, so this empties the slot.
		s.head = c.next
		if s.head == nil {
			s.tail = nil
		}
		w.release(c)
	}
}

// untally drops the tally at the head of slot s, whose head chunk is c,
// and returns how many events it counts: an entry of its own, or the
// count waiting alone in c, which is then the slot's only chunk.
func (w *wheelSched) untally(s *wheelSlot, c *chunk) uint64 {
	if c.r < c.n {
		n := c.e[c.r].p0
		w.count -= int(n) - 1
		w.advance(s, c)
		return n
	}
	n := c.tally
	c.tally = 0
	w.count -= int(n)
	s.head, s.tail = nil, nil
	w.release(c)
	return n
}

// release parks an emptied chunk on the spare list.
//
//simlint:free
func (w *wheelSched) release(c *chunk) {
	c.r, c.n = 0, 0
	c.next = w.spare
	w.spare = c
}

// drain moves overflow entries that now fall inside the window onto
// their slots. The heap yields them in (at, seq) order and their slots
// are still empty of later pushes, so FIFO order stays push order. A
// tally's entry becomes a waiting count again.
func (w *wheelSched) drain() {
	horizon := w.base + wheelSpan
	for len(w.over) > 0 && w.over[0].at < horizon {
		top := &w.over[0]
		s := &w.slots[int(top.at)&wheelMask]
		if top.act == nil {
			w.addTally(s, top.p0)
			w.excess += int(top.p0) - 1
		} else {
			w.append(s, top.act, top.p0, top.p1)
		}
		w.over.pop()
	}
}

// seek moves the cursor from an empty slot to the earliest non-empty
// one, advancing the window (and draining the overflow) across empty
// slots, and returns that slot — nil when none lies at or before
// deadline, with the cursor then at deadline or, when nothing at all
// is pending, where it was. So the cursor never passes the deadline,
// and a push or tally after the caller moves the clock there lands at
// or after it. When the wheel is empty the window jumps straight to
// the overflow's earliest timestamp, or to the deadline if that comes
// first, instead of stepping.
func (w *wheelSched) seek(deadline Time) *wheelSlot {
	if w.count == 0 {
		if len(w.over) == 0 {
			return nil
		}
		w.base = max(w.base, min(w.over[0].at, deadline))
		w.drain()
	}
	for {
		if s := &w.slots[int(w.base)&wheelMask]; s.head != nil {
			return s
		}
		if w.base >= deadline {
			return nil
		}
		w.base++
		w.drain()
	}
}

// nextAt returns the time of the earliest live entry or tally without
// moving the cursor, discarding the stale guards ahead of it in either
// tier; ok is false when nothing live is pending. It scans the window
// from the cursor, then reads the overflow, whose entries all lie past
// the window.
func (w *wheelSched) nextAt() (at Time, ok bool) {
	for at = w.base; w.count > 0; at++ {
		s := &w.slots[int(at)&wheelMask]
		for s.head != nil {
			c := s.head
			if en := &c.e[c.r]; !stale(en.act, en.p0) {
				return at, true
			}
			w.excess--
			w.advance(s, c)
		}
	}
	for len(w.over) > 0 {
		if top := &w.over[0]; !stale(top.act, top.p0) {
			return top.at, true
		}
		w.excess--
		w.over.pop()
	}
	return 0, false
}

// stale reports whether an entry holding act and first payload word p0
// is the guard of a stopped timer's arming.
func stale(act Action, p0 uint64) bool {
	g, ok := act.(*timerGuard)
	return ok && g.gen != p0
}
