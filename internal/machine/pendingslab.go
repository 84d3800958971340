package machine

// pendingSlab is the per-PE index of pending tasks — tasks that spawned
// children and await their responses — keyed by goal ID. It replaces
// the last hash map on the per-goal path: goal IDs are minted
// sequentially machine-wide, so their low bits already distribute
// uniformly and a power-of-two open-addressed table probed linearly
// resolves a lookup with one mask and, in the common case, one slot
// touched — goal completion does no hashing. Deletion back-shifts the
// probe cluster over the hole (no tombstones), so probe lengths stay
// bounded by the load factor, which growth keeps under 3/4. The zero
// value is an empty slab: the table materializes on the first put, so
// PEs that never hold a pending task — most of a million-PE machine —
// cost nothing here.

// pendingSlot is one table entry; id is slabEmpty when vacant.
type pendingSlot struct {
	id   int64
	task *pendingTask
}

const (
	slabEmpty    int64 = -1
	slabMinSlots       = 16
)

type pendingSlab struct {
	slots []pendingSlot
	n     int
}

// newSlabSlots returns a cleared slot array of the given power-of-two
// size.
func newSlabSlots(size int) []pendingSlot {
	slots := make([]pendingSlot, size)
	for i := range slots {
		slots[i].id = slabEmpty
	}
	return slots
}

// len returns the number of pending tasks.
func (s *pendingSlab) len() int { return s.n }

// get returns the pending task for goal id, or nil.
func (s *pendingSlab) get(id int64) *pendingTask {
	if s.n == 0 {
		return nil
	}
	mask := len(s.slots) - 1
	for i := int(id) & mask; ; i = (i + 1) & mask {
		slot := &s.slots[i]
		if slot.id == id {
			return slot.task
		}
		if slot.id == slabEmpty {
			return nil
		}
	}
}

// put inserts the pending task for goal id. Goal IDs are unique within
// a run and a goal executes exactly once, so id is never already
// present.
func (s *pendingSlab) put(id int64, task *pendingTask) {
	if s.slots == nil {
		s.slots = newSlabSlots(slabMinSlots)
	} else if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	i := int(id) & mask
	for s.slots[i].id != slabEmpty {
		i = (i + 1) & mask
	}
	s.slots[i] = pendingSlot{id: id, task: task}
	s.n++
}

// del removes goal id (which must be present), back-shifting the probe
// cluster so later lookups never walk a tombstone.
func (s *pendingSlab) del(id int64) {
	mask := len(s.slots) - 1
	i := int(id) & mask
	for s.slots[i].id != id {
		i = (i + 1) & mask
	}
	// Close the hole at i: walk the cluster and pull back the first
	// entry whose home position permits it (i lies on its probe path),
	// repeating from the new hole until the cluster ends.
	j := i
	for {
		j = (j + 1) & mask
		e := s.slots[j]
		if e.id == slabEmpty {
			break
		}
		if home := int(e.id) & mask; (j-home)&mask >= (j-i)&mask {
			s.slots[i] = e
			i = j
		}
	}
	s.slots[i] = pendingSlot{id: slabEmpty}
	s.n--
}

// grow doubles the table and reinserts every entry.
func (s *pendingSlab) grow() {
	old := s.slots
	s.slots = newSlabSlots(2 * len(old))
	mask := len(s.slots) - 1
	for _, e := range old {
		if e.id == slabEmpty {
			continue
		}
		i := int(e.id) & mask
		for s.slots[i].id != slabEmpty {
			i = (i + 1) & mask
		}
		s.slots[i] = e
	}
}

// forEach visits every entry in slot order. The callback must not
// mutate the slab (del back-shifts entries across the cursor): crash
// paths collect IDs first and delete afterwards, in sorted order, for
// determinism.
func (s *pendingSlab) forEach(fn func(id int64, task *pendingTask)) {
	if s.n == 0 {
		return
	}
	for i := range s.slots {
		if s.slots[i].id != slabEmpty {
			fn(s.slots[i].id, s.slots[i].task)
		}
	}
}
