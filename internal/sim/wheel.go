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
// All entries of one instant sit in one tier: an instant enters the
// wheel whole when the horizon passes it, and a rewind evicts it whole.
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
	chunkHead  = 16 // next, r, n
	chunkLen   = (chunkBytes - chunkHead) / 32
)

// chunk is one link of a slot's FIFO: entries r..n-1 are pending.
// Emptied chunks park on the scheduler's spare list, so steady-state
// scheduling allocates nothing.
//
//simlint:pooled
type chunk struct {
	e    [chunkLen]entry //simlint:keep each entry's Action is cleared as it is read or evicted
	next *chunk
	r, n int32
	_    [chunkBytes - chunkHead - chunkLen*32]byte
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
	count int  // entries in the wheel, stale guards included
	// stale counts guards whose timer was stopped and that are not
	// discarded yet, in either tier; size leaves them out.
	stale int
	seq   uint64 // the next overflow key
	over  entryHeap
	spare *chunk // emptied chunks, linked through next
}

// size is the number of live entries pending.
func (w *wheelSched) size() int { return w.count + len(w.over) - w.stale }

// push schedules act with payload (p0, p1) at time at. It takes the
// fields one by one: handing a whole entry down by value stalls the
// store into the chunk on store forwarding.
func (w *wheelSched) push(at Time, act Action, p0, p1 uint64) {
	if uint64(at-w.base) >= uint64(wheelSpan) {
		if at >= w.base {
			w.over.push(at, w.seq, act, p0, p1)
			w.seq++
			return
		}
		// Cold path: the cursor settled on a later event's time and a
		// fresh push targets the gap (possible after RunUntil stops the
		// clock short of the next event). Rewind the window.
		w.rewind(at)
	}
	w.append(&w.slots[int(at)&wheelMask], act, p0, p1)
}

// append adds an entry at the tail of slot s's FIFO.
func (w *wheelSched) append(s *wheelSlot, act Action, p0, p1 uint64) {
	c := s.tail
	if c == nil || c.n == chunkLen {
		c = w.grow(s)
	}
	en := &c.e[c.n]
	en.act, en.p0, en.p1 = act, p0, p1
	c.n++
	w.count++
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
		// A chunk short of full is the tail, so this empties the slot.
		s.head = c.next
		if s.head == nil {
			s.tail = nil
		}
		w.release(c)
	}
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
// are still empty of later pushes, so FIFO order stays push order.
func (w *wheelSched) drain() {
	horizon := w.base + wheelSpan
	for len(w.over) > 0 && w.over[0].at < horizon {
		top := &w.over[0]
		w.append(&w.slots[int(top.at)&wheelMask], top.act, top.p0, top.p1)
		w.over.pop()
	}
}

// seek moves the cursor from an empty slot to the earliest non-empty
// one, advancing the window (and draining the overflow) across empty
// slots, and returns that slot — nil when nothing is pending. When the
// wheel is empty the window jumps straight to the overflow's earliest
// timestamp instead of stepping.
func (w *wheelSched) seek() *wheelSlot {
	if w.count == 0 {
		if len(w.over) == 0 {
			return nil
		}
		w.base = w.over[0].at
		w.drain()
	}
	for {
		if s := &w.slots[int(w.base)&wheelMask]; s.head != nil {
			return s
		}
		w.base++
		w.drain()
	}
}

// rewind moves the window start back to t (t < base), evicting the
// instants the narrower horizon no longer covers, [t+wheelSpan,
// base+wheelSpan), to the overflow heap. Each instant is evicted whole
// and in FIFO order under fresh keys, and no overflow entry shares its
// time, so the heap drains it back in the same order. Only reachable
// when the cursor ran ahead of the clock (a look-ahead stops on the
// next live event's time) and a later push targets the gap — never on
// the fire path — and it visits only the evicted instants' slots.
func (w *wheelSched) rewind(t Time) {
	if w.count > 0 {
		end := w.base + wheelSpan
		for at := max(t+wheelSpan, w.base); at < end; at++ {
			s := &w.slots[int(at)&wheelMask]
			for c := s.head; c != nil; {
				for i := c.r; i < c.n; i++ {
					en := &c.e[i]
					w.over.push(at, w.seq, en.act, en.p0, en.p1)
					w.seq++
					en.act = nil
					w.count--
				}
				next := c.next
				w.release(c)
				c = next
			}
			s.head, s.tail = nil, nil
		}
	}
	w.base = t
}
