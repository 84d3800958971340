// Customstrategy: the machine model accepts any implementation of
// machine.Strategy, so new load-distribution policies can be prototyped
// in a few dozen lines. This example implements "Threshold" — a simple
// sender-initiated policy from the classic load-sharing literature: keep
// new goals local until the local load exceeds T, then push to a random
// neighbor (probing up to K neighbors for one with load below T) — and
// races it against the paper's two schemes.
//
// Run with: go run ./examples/customstrategy
package main

import (
	"fmt"

	"cwnsim/internal/core"
	"cwnsim/internal/machine"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// Threshold is the custom sender-initiated strategy.
type Threshold struct {
	T int // queue length above which new goals are pushed away
	K int // how many known-neighbor loads to probe
}

// Name implements machine.Strategy.
func (s *Threshold) Name() string { return fmt.Sprintf("Threshold(T=%d,K=%d)", s.T, s.K) }

// Setup implements machine.Strategy.
func (s *Threshold) Setup(m *machine.Machine) {}

// NewNode implements machine.Strategy.
func (s *Threshold) NewNode(pe *machine.PE) machine.NodeStrategy {
	return &thresholdNode{s: s, pe: pe}
}

type thresholdNode struct {
	s  *Threshold
	pe *machine.PE
}

// HandleEvent implements machine.NodeStrategy — the event-driven API: a
// node receives a typed event stream and reacts to the kinds it cares
// about. Threshold keeps a new goal unless the local queue is past the
// threshold; then it probes K random neighbors for one believed to be
// below the threshold and pushes the goal there (or to the last probe).
// Transferred goals are accepted unconditionally (one-hop transfers
// only, like the Gradient Model's); everything else — control payloads,
// environment notifications — is ignored.
func (n *thresholdNode) HandleEvent(ev machine.Event) {
	switch ev.Kind {
	case machine.GoalCreated:
		n.place(ev.Goal)
	case machine.GoalArrived:
		n.pe.Accept(ev.Goal)
	}
}

func (n *thresholdNode) place(g *machine.Goal) {
	if n.pe.Load() <= n.s.T {
		n.pe.Accept(g)
		return
	}
	nbrs := n.pe.Neighbors()
	if len(nbrs) == 0 {
		n.pe.Accept(g)
		return
	}
	rng := n.pe.Machine().Engine().Rng()
	target := nbrs[rng.Intn(len(nbrs))]
	for probe := 0; probe < n.s.K; probe++ {
		cand := nbrs[rng.Intn(len(nbrs))]
		if load, _ := n.pe.KnownLoad(cand); load <= n.s.T {
			target = cand
			break
		}
	}
	n.pe.SendGoal(target, g)
}

func main() {
	topo := topology.NewGrid(10, 10)
	tree := workload.NewFib(15)

	strategies := []machine.Strategy{
		&Threshold{T: 2, K: 3},
		core.PaperCWNGrid(),
		core.PaperGMGrid(),
	}
	fmt.Printf("%s, %s\n\n", tree, topo)
	for _, strat := range strategies {
		stats := machine.New(topo, tree, strat, machine.DefaultConfig()).Run()
		fmt.Printf("%-18s util %5.1f%%  speedup %6.2f  avg hops %.2f  goal msgs %d\n",
			strat.Name(), stats.UtilizationPercent(), stats.Speedup(),
			stats.AvgGoalHops(), stats.MsgCounts[machine.MsgGoal])
	}
}
