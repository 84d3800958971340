package sim

// eventHeap is a min-heap of events ordered by (at, seq). It is
// hand-rolled rather than built on container/heap to avoid interface
// boxing on the hot path: a full comparison run of the paper's suite pops
// a few hundred million events. It is the far-future overflow tier of
// the engine's two-tier wheel (wheel.go), and the ordering reference
// the wheel is tested against (TestSchedulerEquivalence).
//
// The branching factor is a parameter because the obvious d-ary-heap
// optimization was tried and rejected: arity 4 halves the tree depth
// but pays ≤3 sibling comparisons per level on the way down, and on
// the heap-heaviest case of the PR 3 perf ledger (open/ctrl-grid32-gm —
// 1024 PEs' tickers and timers resident in the heap) it measured ~5%
// FEWER events/sec than the binary heap (see the heap_experiment record
// in BENCH_PR3.json). The standing heap here is thousands of events, so
// depth is cheap, while Timer.Stop's removeAt and every re-arm push
// lean on up(), which arity only makes shallower at the cost of wider
// down() — the trade does not pay at this heap shape. Re-measure with
// perfbench (sim.overflow_push_pop_ns and the ctrl-gm workload) before
// changing heapArity.
type eventHeap []*Event

const heapArity = 2

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	ev.index = len(*h) - 1
	h.up(ev.index)
}

// pop removes and returns the earliest event, or nil if empty. Cancelled
// events may be returned; the engine skips them.
func (h *eventHeap) pop() *Event {
	if len(*h) == 0 {
		return nil
	}
	return h.popTop()
}

func (h *eventHeap) popTop() *Event {
	old := *h
	n := len(old)
	top := old[0]
	old.swap(0, n-1)
	old[n-1] = nil
	*h = old[:n-1]
	if n > 1 {
		h.down(0)
	}
	top.index = -1
	return top
}

// removeAt deletes the event at heap position i in O(log n) using the
// index field events carry — how Timer.Stop unlinks an overflow event,
// so a stopped timer leaves no cancelled tombstone behind.
func (h *eventHeap) removeAt(i int) {
	old := *h
	n := len(old)
	ev := old[i]
	old.swap(i, n-1)
	old[n-1] = nil
	*h = old[:n-1]
	if i < n-1 {
		h.down(i)
		h.up(i)
	}
	ev.index = -1
}

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / heapArity
		if !h.less(i, parent) {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		first := heapArity*i + 1
		if first >= n {
			return
		}
		smallest := first
		last := first + heapArity
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.less(c, smallest) {
				smallest = c
			}
		}
		if !h.less(smallest, i) {
			return
		}
		h.swap(i, smallest)
		i = smallest
	}
}
