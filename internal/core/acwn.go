package core

import (
	"fmt"

	"cwnsim/internal/machine"
	"cwnsim/internal/sim"
)

// ACWN is "adaptive CWN": plain CWN extended with the three improvements
// the paper's conclusions call for, each independently switchable so the
// ablation benches can isolate its contribution:
//
//  1. Saturation control ("When the system is running at 100%
//     utilization, there is no need to send every goal out"): a new goal
//     stays local when both this PE's load and every known neighbor
//     load are at least SatThreshold.
//  2. A small re-distribution component ("a small, well-controlled
//     re-distribution component should be added to CWN"): a periodic
//     process re-exports one queued, unstarted goal to a known-idle
//     neighbor.
//  3. Commitment-aware load is selected machine-wide via
//     machine.Config.LoadMetric = LoadQueuePlusPending (the paper's
//     "taking future commitments into account while computing the
//     load").
type ACWN struct {
	// Radius and Horizon as in CWN.
	Radius  int
	Horizon int
	// SatThreshold enables saturation control when > 0.
	SatThreshold int
	// Redistribute enables the periodic re-distribution process.
	Redistribute bool
	// Interval is the re-distribution process period (used only when
	// Redistribute is set).
	Interval sim.Time
	// StrictMinimum selects the local-minimum test, as in CWN.
	StrictMinimum bool
}

// NewACWN returns an ACWN with both behavioural extensions enabled.
func NewACWN(radius, horizon, satThreshold int, interval sim.Time) *ACWN {
	if radius < 1 {
		panic("core: ACWN radius must be >= 1")
	}
	if horizon < 0 || horizon > radius {
		panic("core: ACWN horizon must be in [0, radius]")
	}
	if satThreshold < 0 {
		panic("core: ACWN saturation threshold must be >= 0")
	}
	if interval <= 0 {
		panic("core: ACWN interval must be positive")
	}
	return &ACWN{
		Radius:       radius,
		Horizon:      horizon,
		SatThreshold: satThreshold,
		Redistribute: true,
		Interval:     interval,
	}
}

// Name implements machine.Strategy.
func (s *ACWN) Name() string {
	return fmt.Sprintf("ACWN(r=%d,h=%d,sat=%d,redist=%v)", s.Radius, s.Horizon, s.SatThreshold, s.Redistribute)
}

// NewNode implements machine.Strategy.
func (s *ACWN) NewNode(pe *machine.PE) machine.NodeStrategy {
	n := &acwnNode{s: s, pe: pe}
	if s.Redistribute {
		pe.Machine().NewTicker(s.Interval, n.tick)
	}
	return n
}

type acwnNode struct {
	s  *ACWN
	pe *machine.PE
}

// HandleEvent implements machine.NodeStrategy.
func (n *acwnNode) HandleEvent(ev machine.Event) {
	switch ev.Kind {
	case machine.GoalCreated:
		n.place(ev.Goal)
	case machine.GoalArrived:
		walk(n.pe, ev.Goal, n.s.Radius, n.s.Horizon, n.s.StrictMinimum)
	}
}

// place behaves like CWN unless the neighborhood is saturated, in
// which case the goal stays local and the contraction traffic is saved.
func (n *acwnNode) place(g *machine.Goal) {
	nbr, least := n.pe.LeastLoadedNeighbor()
	if nbr < 0 {
		n.pe.Accept(g)
		return
	}
	if t := n.s.SatThreshold; t > 0 && n.pe.Load() >= t && least >= t {
		n.pe.Accept(g)
		return
	}
	n.pe.SendGoal(nbr, g)
}

// tick is the re-distribution process: when a known-idle neighbor exists
// and this PE has spare queued goals, push one over. Only unstarted
// goals move — tasks that have spawned never migrate.
func (n *acwnNode) tick() {
	if n.pe.QueuedGoals() < 2 {
		return
	}
	target := -1
	count := 0
	rng := n.pe.Machine().Engine().Rng()
	for _, nb := range n.pe.Neighbors() {
		load, heard := n.pe.KnownLoad(nb)
		if heard && load == 0 {
			count++
			if rng.Intn(count) == 0 {
				target = nb
			}
		}
	}
	if target < 0 {
		return
	}
	if g := n.pe.TakeNewestQueuedGoal(); g != nil {
		n.pe.SendGoal(target, g)
	}
}
