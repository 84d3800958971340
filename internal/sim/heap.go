package sim

// heapEntry is an overflow entry: an entry by value under its key, its
// time and an insertion key that orders entries of one instant FIFO.
type heapEntry struct {
	at     Time
	seq    uint64
	act    Action
	p0, p1 uint64
}

// entryHeap is a min-heap of entries ordered by (at, seq). It is
// hand-rolled rather than built on container/heap to avoid interface
// boxing on the hot path. It is the far-future overflow tier of the
// engine's two-tier wheel (wheel.go), and, fired by a bare loop, the
// ordering reference the engine is tested against
// (TestSchedulerEquivalence).
//
// The heap holds its 48-byte entries by value, so nothing outside it
// tracks a position and nothing is ever removed from the middle: a
// stopped Timer's guard stays until its time and is discarded then.
// Both sifts carry the moving entry in a hole and shift the others into
// it, one 48-byte copy per level rather than a swap.
//
// The branching factor is a parameter because the obvious d-ary-heap
// optimization was tried and rejected: arity 4 halves the tree depth
// but pays ≤3 sibling comparisons per level on the way down, and on
// the heap-heaviest case of the PR 3 perf ledger (open/ctrl-grid32-gm —
// 1024 PEs' tickers and timers resident in the heap) it measured ~5%
// FEWER events/sec than the binary heap (see the heap_experiment record
// in BENCH_PR3.json). The standing heap here is thousands of events, so
// depth is cheap. That heap held pointers; this one moves 48-byte
// entries, one copy per level, which a shallower tree would save, so
// re-measure with perfbench (sim.overflow_push_pop_ns and the ctrl-gm
// workload) before changing heapArity.
type entryHeap []heapEntry

const heapArity = 2

func (x *heapEntry) before(y *heapEntry) bool {
	return x.at < y.at || x.at == y.at && x.seq < y.seq
}

// push adds an entry, taking its fields one by one as wheelSched.push
// does.
func (h *entryHeap) push(at Time, seq uint64, act Action, p0, p1 uint64) {
	*h = append(*h, heapEntry{})
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / heapArity
		if q := &s[p]; q.at < at || q.at == at && q.seq < seq {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = heapEntry{at: at, seq: seq, act: act, p0: p0, p1: p1}
}

// pop removes the earliest entry; the heap must not be empty. Callers
// read the entry at h[0] first.
func (h *entryHeap) pop() {
	s := *h
	n := len(s) - 1
	last := s[n]
	s[n] = heapEntry{}
	s = s[:n]
	*h = s
	if n == 0 {
		return
	}
	i := 0
	for {
		first := heapArity*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < min(first+heapArity, n); c++ {
			if s[c].before(&s[least]) {
				least = c
			}
		}
		if !s[least].before(&last) {
			break
		}
		s[i] = s[least]
		i = least
	}
	s[i] = last
}
