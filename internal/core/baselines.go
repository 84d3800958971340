package core

import (
	"fmt"

	"cwnsim/internal/machine"
)

// Local is the no-distribution baseline: every goal executes where it
// was created. It bounds the comparison from below (speedup 1 on any
// workload, since the whole tree stays on the root PE) and doubles as a
// sequential-execution oracle in tests.
type Local struct{}

// NewLocal returns the local-only baseline.
func NewLocal() *Local { return &Local{} }

// Name implements machine.Strategy.
func (s *Local) Name() string { return "Local" }

// LoadBlind implements machine.LoadBlind.
func (s *Local) LoadBlind() string { return "every goal stays where it was created" }

// NewNode implements machine.Strategy.
func (s *Local) NewNode(pe *machine.PE) machine.NodeStrategy { return localNode{pe} }

type localNode struct{ pe *machine.PE }

func (n localNode) HandleEvent(ev machine.Event) {
	switch ev.Kind {
	case machine.GoalCreated, machine.GoalArrived:
		n.pe.Accept(ev.Goal)
	}
}

// RandomWalk places each new goal at the end of a fixed-length uniform
// random walk, ignoring load entirely. It isolates how much of CWN's
// benefit comes from mere scattering versus from following the load
// gradient.
type RandomWalk struct {
	// Steps is the exact number of random hops each goal takes.
	Steps int
}

// NewRandomWalk returns a random-walk strategy taking steps hops.
func NewRandomWalk(steps int) *RandomWalk {
	if steps < 1 {
		panic("core: RandomWalk steps must be >= 1")
	}
	return &RandomWalk{Steps: steps}
}

// Name implements machine.Strategy.
func (s *RandomWalk) Name() string { return fmt.Sprintf("RandomWalk(%d)", s.Steps) }

// LoadBlind implements machine.LoadBlind.
func (s *RandomWalk) LoadBlind() string { return "goals hop to uniformly drawn neighbors" }

// NewNode implements machine.Strategy.
func (s *RandomWalk) NewNode(pe *machine.PE) machine.NodeStrategy {
	return &randomWalkNode{s: s, pe: pe}
}

type randomWalkNode struct {
	s  *RandomWalk
	pe *machine.PE
}

func (n *randomWalkNode) hop(g *machine.Goal) {
	nbrs := n.pe.Neighbors()
	if len(nbrs) == 0 {
		n.pe.Accept(g)
		return
	}
	to := nbrs[n.pe.Machine().Engine().Rng().Intn(len(nbrs))]
	n.pe.SendGoal(to, g)
}

func (n *randomWalkNode) HandleEvent(ev machine.Event) {
	switch ev.Kind {
	case machine.GoalCreated:
		n.hop(ev.Goal)
	case machine.GoalArrived:
		if ev.Goal.Hops >= n.s.Steps {
			n.pe.Accept(ev.Goal)
			return
		}
		n.hop(ev.Goal)
	}
}

// RoundRobin scatters each PE's new goals over its neighbors in strict
// rotation, one hop, load-blind: the cheapest conceivable sender-
// initiated scheme.
type RoundRobin struct{}

// NewRoundRobin returns the rotating-neighbor baseline.
func NewRoundRobin() *RoundRobin { return &RoundRobin{} }

// Name implements machine.Strategy.
func (s *RoundRobin) Name() string { return "RoundRobin" }

// LoadBlind implements machine.LoadBlind.
func (s *RoundRobin) LoadBlind() string { return "new goals rotate over the neighbors" }

// NewNode implements machine.Strategy.
func (s *RoundRobin) NewNode(pe *machine.PE) machine.NodeStrategy {
	return &roundRobinNode{pe: pe}
}

type roundRobinNode struct {
	pe   *machine.PE
	next int
}

func (n *roundRobinNode) HandleEvent(ev machine.Event) {
	switch ev.Kind {
	case machine.GoalCreated:
		nbrs := n.pe.Neighbors()
		if len(nbrs) == 0 {
			n.pe.Accept(ev.Goal)
			return
		}
		to := nbrs[n.next%len(nbrs)]
		n.next++
		n.pe.SendGoal(to, ev.Goal)
	case machine.GoalArrived:
		n.pe.Accept(ev.Goal)
	}
}
