package machine

import (
	"math/rand"
	"testing"
)

// TestPendingSlabModel drives the open-addressed slab against a plain
// map with a goal-ID-shaped workload — sequential IDs, interleaved
// deletions, growth through several doublings — and checks every
// lookup, the count, and iteration coverage. The adversarial twist:
// bursts of IDs that collide modulo the initial table size, so the
// back-shift deletion has real clusters to repair.
func TestPendingSlabModel(t *testing.T) {
	var s pendingSlab
	model := map[int64]*pendingTask{}
	rng := rand.New(rand.NewSource(42))
	nextID := int64(0)
	live := []int64{}

	check := func(id int64) {
		t.Helper()
		got, want := s.get(id), model[id]
		if got != want {
			t.Fatalf("get(%d) = %p, want %p", id, got, want)
		}
	}

	for step := 0; step < 20000; step++ {
		switch {
		case rng.Intn(3) != 0 || len(live) == 0:
			id := nextID
			if rng.Intn(4) == 0 {
				// A colliding ID: same residue mod the minimum table
				// size as an existing live ID.
				id = nextID + slabMinSlots*int64(1+rng.Intn(3))
			}
			nextID = id + 1
			p := &pendingTask{remaining: int(id)}
			s.put(id, p)
			model[id] = p
			live = append(live, id)
		default:
			i := rng.Intn(len(live))
			id := live[i]
			live[i] = live[len(live)-1]
			live = live[:len(live)-1]
			s.del(id)
			delete(model, id)
			check(id) // must now miss
		}
		if s.len() != len(model) {
			t.Fatalf("len = %d, model has %d", s.len(), len(model))
		}
		// Spot-check a few live and dead IDs every step.
		for i := 0; i < 3 && len(live) > 0; i++ {
			check(live[rng.Intn(len(live))])
		}
		check(nextID + 1000) // never inserted
	}

	// Iteration covers exactly the live set.
	seen := map[int64]bool{}
	s.forEach(func(id int64, p *pendingTask) {
		if seen[id] {
			t.Fatalf("forEach visited %d twice", id)
		}
		seen[id] = true
		if model[id] != p {
			t.Fatalf("forEach(%d) yielded wrong task", id)
		}
	})
	if len(seen) != len(model) {
		t.Fatalf("forEach visited %d entries, want %d", len(seen), len(model))
	}
}
