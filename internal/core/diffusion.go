package core

import (
	"fmt"

	"cwnsim/internal/machine"
	"cwnsim/internal/sim"
)

// Diffusion is the classic nearest-neighbor diffusion balancer
// (contemporary with the paper; analyzed by Cybenko 1989): a periodic
// per-PE process compares its load with each neighbor's last known load
// and, for every neighbor lighter by at least diffusionMinGap, transfers
// half the difference in queued goals. Like GM it is receiver-agnostic
// and periodic; unlike GM it uses no global demand signal (no
// proximity), so it measures what GM's gradient information is actually
// worth.
type Diffusion struct {
	// Interval is the diffusion process period.
	Interval sim.Time
}

const (
	// diffusionMinGap is the minimum load difference that triggers a
	// transfer; transferring on a difference of 1 just swaps the
	// imbalance.
	diffusionMinGap = 2
	// diffusionMaxPerCycle caps how many goals move to one neighbor per
	// wakeup.
	diffusionMaxPerCycle = 4
)

// NewDiffusion returns a diffusion balancer.
func NewDiffusion(interval sim.Time) *Diffusion {
	if interval <= 0 {
		panic("core: Diffusion interval must be positive")
	}
	return &Diffusion{Interval: interval}
}

// Name implements machine.Strategy.
func (s *Diffusion) Name() string { return fmt.Sprintf("Diffusion(i=%d)", s.Interval) }

// NewNode implements machine.Strategy.
func (s *Diffusion) NewNode(pe *machine.PE) machine.NodeStrategy {
	n := &diffusionNode{pe: pe}
	pe.Machine().NewTicker(s.Interval, n.tick)
	return n
}

type diffusionNode struct {
	pe *machine.PE
}

// HandleEvent implements machine.NodeStrategy: new goals stay local
// (like GM) and arrivals enqueue unconditionally; diffusion needs no
// control traffic beyond the machine's load words.
func (n *diffusionNode) HandleEvent(ev machine.Event) {
	switch ev.Kind {
	case machine.GoalCreated, machine.GoalArrived:
		n.pe.Accept(ev.Goal)
	}
}

// tick equalizes with every lighter neighbor.
func (n *diffusionNode) tick() {
	for _, nb := range n.pe.Neighbors() {
		load := n.pe.Load()
		nbLoad, heard := n.pe.KnownLoad(nb)
		if !heard {
			continue
		}
		diff := load - nbLoad
		if diff < diffusionMinGap {
			continue
		}
		move := diff / 2
		if move > diffusionMaxPerCycle {
			move = diffusionMaxPerCycle
		}
		for i := 0; i < move; i++ {
			g := n.pe.TakeOldestQueuedGoal()
			if g == nil {
				return
			}
			n.pe.SendGoal(nb, g)
		}
	}
}
