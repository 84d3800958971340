package core

import (
	"fmt"

	"cwnsim/internal/machine"
	"cwnsim/internal/sim"
)

// WorkSteal is a receiver-initiated comparator: new goals stay local
// (like GM), and a PE whose load drops below Threshold periodically asks
// its most-loaded known neighbor for work; the victim replies with one
// queued goal or a refusal. This is the classic receiver-initiated
// policy from the load-sharing literature contemporary to the paper,
// included for the extended comparison.
type WorkSteal struct {
	// Interval is the idle-check period.
	Interval sim.Time
	// Threshold: steal attempts start when load < Threshold.
	Threshold int
	// FailureAware opts the nodes into PEFailed/PERecovered events: a
	// thief whose outstanding request targeted the failed PE cancels it
	// and re-steers to a live victim immediately instead of waiting for
	// the dead co-processor's refusal and the next tick. Off by
	// default.
	FailureAware bool
}

// NewWorkSteal returns a work-stealing strategy.
func NewWorkSteal(interval sim.Time, threshold int) *WorkSteal {
	if interval <= 0 {
		panic("core: WorkSteal interval must be positive")
	}
	if threshold < 1 {
		panic("core: WorkSteal threshold must be >= 1")
	}
	return &WorkSteal{Interval: interval, Threshold: threshold}
}

// Name implements machine.Strategy.
func (s *WorkSteal) Name() string {
	if s.FailureAware {
		return fmt.Sprintf("WorkSteal+fa(i=%d,t=%d)", s.Interval, s.Threshold)
	}
	return fmt.Sprintf("WorkSteal(i=%d,t=%d)", s.Interval, s.Threshold)
}

// NewNode implements machine.Strategy.
func (s *WorkSteal) NewNode(pe *machine.PE) machine.NodeStrategy {
	n := &stealNode{s: s, pe: pe}
	pe.Machine().NewTicker(s.Interval, n.tick)
	return n
}

// stealRequest asks the receiver to donate one queued goal.
type stealRequest struct{}

// stealNack tells a thief the victim had nothing to give.
type stealNack struct{}

type stealNode struct {
	s           *WorkSteal
	pe          *machine.PE
	outstanding bool // at most one steal request in flight
	victim      int  // who the outstanding request targets (valid while outstanding)
}

// WantsFailureEvents implements machine.FailureAware, gated on the
// strategy flag.
func (n *stealNode) WantsFailureEvents() bool { return n.s.FailureAware }

// HandleEvent implements machine.NodeStrategy. New goals stay local
// (distribution is pull-based); an arriving goal is donated work, which
// re-arms the thief.
func (n *stealNode) HandleEvent(ev machine.Event) {
	switch ev.Kind {
	case machine.GoalCreated:
		n.pe.Accept(ev.Goal)
	case machine.GoalArrived:
		n.outstanding = false
		n.pe.Accept(ev.Goal)
	case machine.Control:
		n.control(ev.From, ev.Payload)
	case machine.PEFailed:
		// An outstanding request to the failed PE can only yield a
		// refusal (its queue was lost or evacuated): cancel it and
		// re-steer to a live victim now, not a round-trip-plus-tick
		// later.
		if n.outstanding && n.victim == ev.From {
			n.outstanding = false
			n.tick()
		}
	}
}

func (n *stealNode) tick() {
	if n.outstanding || n.pe.Load() >= n.s.Threshold {
		return
	}
	victim := n.pickVictim()
	if victim < 0 {
		return
	}
	n.outstanding = true
	n.victim = victim
	n.pe.SendControl(victim, stealRequest{})
}

// pickVictim chooses the neighbor with the largest known positive load
// (ties broken randomly); -1 when no neighbor is known to have work.
// Loads at or above machine.FailedLoad advertise a blacked-out PE
// (scenario runs) whose queue was evacuated — the worst possible
// victim, skipped so thieves keep targeting real work during an
// outage.
func (n *stealNode) pickVictim() int {
	best, choice, count := 0, -1, 0
	rng := n.pe.Machine().Engine().Rng()
	for _, nb := range n.pe.Neighbors() {
		load, _ := n.pe.KnownLoad(nb) // an unheard neighbor reads 0
		if load <= 0 || load >= machine.FailedLoad {
			continue
		}
		switch {
		case load > best:
			best, choice, count = load, nb, 1
		case load == best:
			count++
			if rng.Intn(count) == 0 {
				choice = nb
			}
		}
	}
	return choice
}

func (n *stealNode) control(from int, payload any) {
	switch payload.(type) {
	case stealRequest:
		if g := n.pe.TakeNewestQueuedGoal(); g != nil {
			n.pe.SendGoal(from, g)
			return
		}
		n.pe.SendControl(from, stealNack{})
	case stealNack:
		// Only the current victim's refusal re-arms the thief: a stale
		// nack from a victim already abandoned on its failure (the
		// failure-aware re-steer) must not cancel the live request.
		if n.outstanding && from == n.victim {
			n.outstanding = false
		}
	}
}
