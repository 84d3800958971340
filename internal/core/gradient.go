package core

import (
	"fmt"

	"cwnsim/internal/machine"
	"cwnsim/internal/sim"
)

// Gradient is the Gradient Model of Lin and Keller as described in
// Section 2.2 of the paper. New goals stay on their source PE. A
// periodic per-PE gradient process classifies the PE by its load —
// idle (< LowWater), abundant (> HighWater), else neutral — maintains a
// proximity value (its guess at the distance to the nearest idle PE,
// clamped to diameter+1), broadcasts the proximity to neighbors when it
// changes, and, when abundant, exports one queued goal per wakeup to the
// neighbor with least proximity. A PE receiving a goal message just
// enqueues it.
type Gradient struct {
	// LowWater / HighWater are the watermarks. Paper (Table 1): low 1 /
	// high 2 on grids, low 1 / high 1 on double-lattice-meshes.
	LowWater  int
	HighWater int
	// Interval is the gradient process period (paper: 20 units — "fairly
	// low" against total execution times of 1000-23000).
	Interval sim.Time
	// RequireTarget, when set, suppresses export while no idle PE is
	// inferred anywhere (all neighbor proximities at the clamp value).
	// The paper's text exports unconditionally when abundant; this gate
	// exists for the ablation study.
	RequireTarget bool
	// ExportNewest exports the most recently created queued goal instead
	// of the queue front. The paper says only "a goal message from the
	// local queue"; taking the front (oldest, typically the largest
	// waiting subtree) is both the natural queue discipline and the only
	// reading under which GM approaches the near-full utilization the
	// paper's plots show, so it is the default. TestGMExportNewestVariant
	// and BenchmarkGMExportPolicy compare the two readings.
	ExportNewest bool
	// FailureAware opts the nodes into PEFailed/PERecovered events —
	// the recovery path plain GM lacks entirely: a failed neighbor's
	// proximity is pinned unreachable at once (no work drifts toward a
	// dead region on stale gradient data), and a recovered neighbor is
	// treated as the idle PE it is — proximity zero, plus an immediate
	// batch export instead of the one-goal-per-wakeup trickle that left
	// PR 3's blackout backlogs standing forever. Off by default.
	FailureAware bool
}

// NewGradient returns a Gradient Model strategy with the paper's
// semantics (RequireTarget off).
func NewGradient(lowWater, highWater int, interval sim.Time) *Gradient {
	if lowWater < 0 || highWater < lowWater {
		panic("core: Gradient watermarks must satisfy 0 <= low <= high")
	}
	if interval <= 0 {
		panic("core: Gradient interval must be positive")
	}
	return &Gradient{LowWater: lowWater, HighWater: highWater, Interval: interval}
}

// Name implements machine.Strategy.
func (s *Gradient) Name() string {
	if s.FailureAware {
		return fmt.Sprintf("GM+fa(l=%d,h=%d,i=%d)", s.LowWater, s.HighWater, s.Interval)
	}
	return fmt.Sprintf("GM(l=%d,h=%d,i=%d)", s.LowWater, s.HighWater, s.Interval)
}

// proxUpdate is the control payload carrying a PE's new proximity.
type proxUpdate int32

// NewNode implements machine.Strategy.
func (s *Gradient) NewNode(pe *machine.PE) machine.NodeStrategy {
	maxProx := int32(pe.Machine().Topology().Diameter() + 1)
	n := &gmNode{
		s:       s,
		pe:      pe,
		maxProx: maxProx,
		nbrProx: make([]int32, len(pe.Neighbors())),
		// "All the PEs initially assume that the proximities of their
		// neighbors are 0", so nbrProx starts zeroed; own proximity
		// starts at 0 too (nothing has been broadcast yet).
	}
	pe.Machine().NewTicker(s.Interval, n.tick)
	return n
}

type gmNode struct {
	s       *Gradient
	pe      *machine.PE
	maxProx int32
	myProx  int32
	nbrProx []int32 // indexed parallel to pe.Neighbors()
}

// peState is the gradient process's three-way classification.
type peState uint8

const (
	stateIdle peState = iota
	stateNeutral
	stateAbundant
)

func (s *Gradient) classify(load int) peState {
	switch {
	case load < s.LowWater:
		return stateIdle
	case load > s.HighWater:
		return stateAbundant
	default:
		return stateNeutral
	}
}

// tick is one wakeup of the asynchronous gradient process.
func (n *gmNode) tick() {
	load := n.pe.Load()
	state := n.s.classify(load)

	// Recompute own proximity.
	var p int32
	if state == stateIdle {
		p = 0
	} else {
		p = n.minNbrProx() + 1
		if p > n.maxProx {
			p = n.maxProx
		}
	}
	if p != n.myProx {
		n.myProx = p
		n.pe.BroadcastControl(proxUpdate(p))
	}

	if state != stateAbundant {
		return
	}
	if n.s.RequireTarget && n.minNbrProx() >= n.maxProx {
		return
	}
	target := n.leastProxNeighbor()
	if target < 0 {
		return
	}
	if g := n.takeExport(); g != nil {
		n.pe.SendGoal(target, g)
	}
}

// minNbrProx returns the smallest known neighbor proximity (maxProx when
// the PE has no neighbors).
func (n *gmNode) minNbrProx() int32 {
	if len(n.nbrProx) == 0 {
		return n.maxProx
	}
	min := n.nbrProx[0]
	for _, p := range n.nbrProx[1:] {
		if p < min {
			min = p
		}
	}
	return min
}

// leastProxNeighbor picks the neighbor with minimum proximity, breaking
// ties uniformly at random from the run's seeded stream.
func (n *gmNode) leastProxNeighbor() int {
	nbrs := n.pe.Neighbors()
	if len(nbrs) == 0 {
		return -1
	}
	rng := n.pe.Machine().Engine().Rng()
	best := n.nbrProx[0]
	choice := nbrs[0]
	count := 1
	for i := 1; i < len(nbrs); i++ {
		switch {
		case n.nbrProx[i] < best:
			best, choice, count = n.nbrProx[i], nbrs[i], 1
		case n.nbrProx[i] == best:
			count++
			if rng.Intn(count) == 0 {
				choice = nbrs[i]
			}
		}
	}
	return choice
}

// WantsFailureEvents implements machine.FailureAware, gated on the
// strategy flag.
func (n *gmNode) WantsFailureEvents() bool { return n.s.FailureAware }

// HandleEvent implements machine.NodeStrategy. New goals stay local
// ("the Gradient Model keeps the newly created tasks on the source PE,
// and distributes them when required") and arrivals enqueue
// unconditionally ("Any PE that receives a goal message from its
// neighbor just adds it to its queue"). A Control payload records the
// neighbor's proximity broadcast, acted on at the next gradient-process
// wakeup, as in the paper. Availability events fire only in
// failure-aware mode.
func (n *gmNode) HandleEvent(ev machine.Event) {
	switch ev.Kind {
	case machine.GoalCreated, machine.GoalArrived:
		n.pe.Accept(ev.Goal)
	case machine.Control:
		p, ok := ev.Payload.(proxUpdate)
		if !ok {
			return
		}
		n.setNbrProx(ev.From, int32(p))
	case machine.PEFailed:
		// A dead neighbor consumes nothing: pin its proximity at the
		// clamp so the gradient stops pointing into the dead region the
		// instant the sentinel lands, not a wakeup later.
		n.setNbrProx(ev.From, n.maxProx)
	case machine.PERecovered:
		// The recovered neighbor is an empty, idle PE — proximity zero
		// by definition. Export a batch now: the periodic process's one
		// goal per wakeup cannot drain a blackout backlog.
		n.setNbrProx(ev.From, 0)
		if n.s.classify(n.pe.Load()) == stateAbundant {
			for i := 0; i < shedBatch && n.pe.QueuedGoals() > 1; i++ {
				g := n.takeExport()
				if g == nil {
					return
				}
				n.pe.SendGoal(ev.From, g)
			}
		}
	}
}

// takeExport pulls the next goal to export under the configured policy.
func (n *gmNode) takeExport() *machine.Goal {
	if n.s.ExportNewest {
		return n.pe.TakeNewestQueuedGoal()
	}
	return n.pe.TakeOldestQueuedGoal()
}

// setNbrProx updates the recorded proximity of neighbor `from`.
func (n *gmNode) setNbrProx(from int, p int32) {
	for i, nb := range n.pe.Neighbors() {
		if nb == from {
			n.nbrProx[i] = p
			return
		}
	}
}
