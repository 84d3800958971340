package core

import (
	"fmt"

	"cwnsim/internal/machine"
)

// CWN is the Contracting-Within-a-Neighborhood strategy (Kale). Every
// newly created goal is immediately contracted out: it is sent to the
// source's least-loaded neighbor and then walks the steepest local load
// gradient until it reaches a local load minimum — but no nearer to its
// source than Horizon hops ("looking over the horizon") and no farther
// than Radius hops. A goal accepted by a PE executes there and is never
// re-sent.
type CWN struct {
	// Radius is the maximum distance (in hops) a goal message may
	// travel; a message that has travelled Radius hops must be kept.
	Radius int
	// Horizon is the minimum number of hops a goal must have travelled
	// before a PE may keep it for being a local load minimum. A source
	// PE can never keep its own new goal regardless of Horizon.
	Horizon int
	// StrictMinimum selects the local-minimum test. The paper's text
	// says "own load is less than its least loaded neighbor's" (strict);
	// with integer loads and frequent ties a strict test almost never
	// stops a goal early and nearly every goal walks out to the full
	// radius. The paper's published hop histogram (Table 3: ~48% of
	// goals stopping after one hop, mean 3.15) is only consistent with
	// accepting on ties, so the default is the non-strict test; set
	// StrictMinimum for the literal reading. TestCWNStrictVariantWalksFarther
	// and BenchmarkCWNMinimumRule compare the two readings.
	StrictMinimum bool
	// FailureAware opts the nodes into PEFailed/PERecovered events
	// (machine.FailureAware): on a neighbor's failure a node sheds part
	// of its queue to its least-loaded live neighbor before the
	// evacuation flood lands, and on a neighbor's recovery it backfills
	// the empty PE with queued goals immediately — instead of waiting
	// for new goals to contract there. Off (sentinel-only, the PR 3
	// behaviour) by default.
	FailureAware bool
}

// shedBatch caps how many queued goals one availability event may move:
// enough to matter (a recovered PE gets real work at once), small
// enough that one event cannot stampede a queue onto a single neighbor.
const shedBatch = 8

// NewCWN returns a CWN strategy. The paper's tuned parameters are
// radius 9 / horizon 2 on grids and radius 5 / horizon 1 on
// double-lattice-meshes (Table 1).
func NewCWN(radius, horizon int) *CWN {
	if radius < 1 {
		panic("core: CWN radius must be >= 1")
	}
	if horizon < 0 || horizon > radius {
		panic("core: CWN horizon must be in [0, radius]")
	}
	return &CWN{Radius: radius, Horizon: horizon}
}

// Name implements machine.Strategy.
func (s *CWN) Name() string {
	if s.FailureAware {
		return fmt.Sprintf("CWN+fa(r=%d,h=%d)", s.Radius, s.Horizon)
	}
	return fmt.Sprintf("CWN(r=%d,h=%d)", s.Radius, s.Horizon)
}

// NewNode implements machine.Strategy.
func (s *CWN) NewNode(pe *machine.PE) machine.NodeStrategy {
	return &cwnNode{s: s, pe: pe}
}

type cwnNode struct {
	s  *CWN
	pe *machine.PE
}

// WantsFailureEvents implements machine.FailureAware, gated on the
// strategy flag so sentinel-only and failure-aware CWN compare head to
// head through identical machinery.
func (n *cwnNode) WantsFailureEvents() bool { return n.s.FailureAware }

// HandleEvent implements machine.NodeStrategy.
func (n *cwnNode) HandleEvent(ev machine.Event) {
	switch ev.Kind {
	case machine.GoalCreated:
		n.place(ev.Goal)
	case machine.GoalArrived:
		walk(n.pe, ev.Goal, n.s.Radius, n.s.Horizon, n.s.StrictMinimum)
	case machine.PEFailed:
		// A neighbor died: its evacuees are about to land here. Make
		// room by spreading part of the standing queue one hop down the
		// load gradient now, not after the flood has serialized.
		n.shed(n.pe.QueuedGoals() / 2)
	case machine.PERecovered:
		// The neighbor came back empty. Backfill it immediately — new
		// goals alone would take a full contraction cycle to find it.
		n.backfill(ev.From)
	}
}

// place contracts every new goal out to the least-loaded neighbor
// ("this scheme sends every subgoal out to another PE as soon as it is
// created"). On a machine with a single PE it degenerates to local
// execution.
func (n *cwnNode) place(g *machine.Goal) {
	nbr, _ := n.pe.LeastLoadedNeighbor()
	if nbr < 0 {
		n.pe.Accept(g)
		return
	}
	n.pe.SendGoal(nbr, g)
}

// walk is the contraction walk, shared by CWN and ACWN: pe keeps the
// arriving goal g when the radius is exhausted, or when pe is a known
// local load minimum and g has looked over the horizon; otherwise g
// moves on down the steepest load gradient (possibly straight back
// where it came from — the walk distance, not the displacement, is what
// the radius bounds).
func walk(pe *machine.PE, g *machine.Goal, radius, horizon int, strict bool) {
	if g.Hops >= radius {
		pe.Accept(g)
		return
	}
	if g.Hops >= horizon && isLocalMinimum(pe, strict) {
		pe.Accept(g)
		return
	}
	nbr, _ := pe.LeastLoadedNeighbor()
	if nbr < 0 {
		pe.Accept(g)
		return
	}
	pe.SendGoal(nbr, g)
}

// shed re-exports up to max (capped at shedBatch) queued goals to the
// least-loaded known neighbor, skipping the move when no neighbor looks
// lighter than this PE.
func (n *cwnNode) shed(max int) {
	if max > shedBatch {
		max = shedBatch
	}
	for i := 0; i < max; i++ {
		nbr, load := n.pe.LeastLoadedNeighbor()
		if nbr < 0 || load >= n.pe.Load() {
			return
		}
		g := n.pe.TakeNewestQueuedGoal()
		if g == nil {
			return
		}
		n.pe.SendGoal(nbr, g)
	}
}

// backfill pushes up to half this PE's queued goals (capped at
// shedBatch) to the just-recovered neighbor.
func (n *cwnNode) backfill(to int) {
	max := n.pe.QueuedGoals() / 2
	if max > shedBatch {
		max = shedBatch
	}
	for i := 0; i < max; i++ {
		g := n.pe.TakeNewestQueuedGoal()
		if g == nil {
			return
		}
		n.pe.SendGoal(to, g)
	}
}

// isLocalMinimum reports whether pe's own load makes it a local load
// minimum among its known neighbor loads.
func isLocalMinimum(pe *machine.PE, strict bool) bool {
	if strict {
		return pe.Load() < pe.MinNeighborLoad()
	}
	return pe.Load() <= pe.MinNeighborLoad()
}
