package core

import (
	"cwnsim/internal/machine"
)

// Ideal is the perfect-information comparator: it models the paper's
// introduction remark that "on shared memory machines, the load
// balancing is relatively simple: we can maintain all the work in a
// central pool" — every new goal is placed on the globally least-loaded
// PE using perfect, zero-latency knowledge of all queue lengths, while
// still paying communication time along the shortest path.
//
// It is deliberately not a strict upper bound: goals in transit are
// invisible to the load measure, so simultaneous placements herd toward
// the same recently-idle PE, and distant placements pay real transit
// time — which is why CWN can and does beat it on larger machines. The
// gap in either direction is informative: it separates the value of
// information quality from the cost of acting on it.
type Ideal struct{}

// NewIdeal returns the perfect-information baseline.
func NewIdeal() *Ideal { return &Ideal{} }

// Name implements machine.Strategy.
func (s *Ideal) Name() string { return "Ideal" }

// SequentialOnly implements machine.SequentialOnly: the oracle reads
// every PE's true load at placement time, which on a sharded machine
// would race with remote shards' goroutines.
func (s *Ideal) SequentialOnly() string {
	return "Ideal reads all PEs' true loads with zero latency"
}

// LoadBlind implements machine.LoadBlind: the oracle reads true loads,
// never the neighbor views load words write.
func (s *Ideal) LoadBlind() string { return "placement reads every PE's true load" }

// NewNode implements machine.Strategy.
func (s *Ideal) NewNode(pe *machine.PE) machine.NodeStrategy {
	return &idealNode{pe: pe}
}

type idealNode struct {
	pe *machine.PE
}

// HandleEvent implements machine.NodeStrategy: a new goal is routed by
// inspecting every PE's true load (the omniscient oracle) straight to
// the global minimum, preferring nearer PEs among equals to limit
// communication; an arriving goal is accepted — its placement was
// already final.
func (n *idealNode) HandleEvent(ev machine.Event) {
	switch ev.Kind {
	case machine.GoalCreated:
		m := n.pe.Machine()
		self := n.pe.ID()
		best, bestLoad, bestDist := self, n.pe.Load(), 0
		for i := 0; i < m.NumPEs(); i++ {
			load := m.PE(i).Load()
			d := m.Topology().Dist(self, i)
			if load < bestLoad || (load == bestLoad && d < bestDist) {
				best, bestLoad, bestDist = i, load, d
			}
		}
		n.pe.RouteGoal(best, ev.Goal)
	case machine.GoalArrived:
		n.pe.Accept(ev.Goal)
	}
}
