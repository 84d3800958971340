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
// cost nothing here. The slab does not hold its entry count: that is
// the PE's entry in Machine.pePending, which the commitment-aware load
// reads densely, so put and del take it as n and keep it.

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

// get returns the pending task for goal id, or nil.
func (s *pendingSlab) get(id int64) *pendingTask {
	if s.slots == nil {
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

// put inserts the pending task for goal id into a slab of *n entries,
// counting it. Goal IDs are unique within a run and a goal executes
// exactly once, so id is never already present.
func (s *pendingSlab) put(n *int32, id int64, task *pendingTask) {
	if s.slots == nil {
		s.slots = newSlabSlots(slabMinSlots)
	} else if 4*(int(*n)+1) > 3*len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	i := int(id) & mask
	for s.slots[i].id != slabEmpty {
		i = (i + 1) & mask
	}
	s.slots[i] = pendingSlot{id: id, task: task}
	*n++
}

// del removes goal id (which must be present) from a slab of *n
// entries, back-shifting the probe cluster so later lookups never walk
// a tombstone.
func (s *pendingSlab) del(n *int32, id int64) {
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
	*n--
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
	for i := range s.slots {
		if s.slots[i].id != slabEmpty {
			fn(s.slots[i].id, s.slots[i].task)
		}
	}
}

// putPending indexes a pending task of the PE's by goal ID.
func (pe *PE) putPending(id int64, p *pendingTask) {
	pe.pending.put(&pe.m.pePending[pe.lx], id, p)
}

// delPending removes the PE's pending task for goal id.
func (pe *PE) delPending(id int64) {
	pe.pending.del(&pe.m.pePending[pe.lx], id)
}
