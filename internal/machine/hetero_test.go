package machine

import (
	"math"
	"testing"

	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// exportBalance is an omniscient test balancer for a 1x2 machine: PE 0
// (where every job lands) runs a fast ticker that exports queued goals
// to PE 1 whenever PE 1's queue is shorter. Under saturation both
// queues stay non-empty, so each PE's completion count is limited by
// its service speed alone — exactly what a heterogeneous-speed test
// needs.
type exportBalance struct{}

func (exportBalance) Name() string { return "export-balance" }
func (exportBalance) NewNode(pe *PE) NodeStrategy {
	n := balanceNode{pe}
	if pe.ID() == 0 {
		pe.Machine().NewTicker(2, n.balance)
	}
	return n
}

type balanceNode struct{ pe *PE }

func (n balanceNode) balance() {
	other := n.pe.Machine().PE(1)
	for n.pe.queueLen() > other.queueLen()+1 {
		g := n.pe.TakeOldestQueuedGoal()
		if g == nil {
			return
		}
		n.pe.SendGoal(1, g)
	}
}

func (n balanceNode) HandleEvent(ev Event) {
	switch ev.Kind {
	case GoalCreated, GoalArrived:
		n.pe.Accept(ev.Goal)
	}
}

// TestHeterogeneousSpeedsSequential pins the service-time arithmetic
// exactly: a 2x PE serves each grain in 10/2=5 units and each combine
// in 5/2=2 (integer clock, floored), so a chain's makespan is exactly
// computable.
func TestHeterogeneousSpeedsSequential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadInterval = 0
	cfg.PESpeeds = []float64{2}
	st := New(topology.NewSingle(), workload.NewChain(10), keepLocal{}, cfg).Run()
	if !st.Completed {
		t.Fatal("run did not complete")
	}
	if st.Makespan != 68 { // 10 goals at 5 units + 9 combines at 2
		t.Fatalf("2x-speed chain makespan = %d, want 68 (=10*5+9*2)", st.Makespan)
	}
	if st.Utilization() != 1 {
		t.Fatalf("utilization = %f, want exactly 1", st.Utilization())
	}
}

// TestHeterogeneousSpeedsEndToEnd drives a saturated job stream through
// a 1x2 machine whose second PE runs at double speed: under greedy
// placement the fast PE completes ~2x the goals of the slow one while
// both stay essentially fully busy, and per-PE busy time reflects the
// scaled service (busy ≈ goals x scaled service time).
func TestHeterogeneousSpeedsEndToEnd(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LoadInterval = 0
	cfg.PESpeeds = []float64{1, 2}
	cfg.MaxTime = 10_000
	tree := workload.NewChain(1) // one unit-work goal per job
	st := NewStream(topology.NewGrid(1, 2), NewFixedInterval(tree, 2, 5000), exportBalance{}, cfg).Run()

	// The stream (a job every 2 units against a combined capacity of
	// 0.3 goals/unit) saturates the machine; the run is cut off at
	// MaxTime with both PEs working flat out.
	if st.Completed {
		t.Fatal("stream drained — not saturated, the test premise is broken")
	}
	slow, fast := st.GoalsPerPE[0], st.GoalsPerPE[1]
	if slow == 0 || fast == 0 {
		t.Fatalf("goals per PE = %d/%d, both must work", slow, fast)
	}
	ratio := float64(fast) / float64(slow)
	if math.Abs(ratio-2) > 0.1 {
		t.Fatalf("fast PE executed %.2fx the slow PE's goals (%d vs %d), want ~2x", ratio, fast, slow)
	}
	// Both PEs essentially continuously busy: utilization reflects the
	// scaled service times, not the raw goal counts.
	for i := 0; i < 2; i++ {
		if u := st.PEUtilization(i); u < 0.95 {
			t.Fatalf("PE %d utilization = %f, want ~1 under saturation", i, u)
		}
	}
	// Busy time per goal: 10 units on the slow PE, 5 on the fast one.
	// The in-service remainder at MaxTime skews the division by < 1.
	if got := float64(st.BusyPerPE[0]) / float64(slow); math.Abs(got-10) > 1 {
		t.Fatalf("slow PE busy/goal = %.2f, want ~10", got)
	}
	if got := float64(st.BusyPerPE[1]) / float64(fast); math.Abs(got-5) > 1 {
		t.Fatalf("fast PE busy/goal = %.2f, want ~5", got)
	}
}

// TestValidateRejectsNonFinitePESpeeds pins the NaN/Inf fix: the old
// `s <= 0` check let NaN through (every comparison with NaN is false)
// and a NaN speed would silently poison every service duration.
func TestValidateRejectsNonFinitePESpeeds(t *testing.T) {
	nan := math.NaN()
	for _, bad := range [][]float64{
		{nan},
		{math.Inf(1)},
		{math.Inf(-1)},
		{1, nan},
		{0},
		{-1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PESpeeds = %v accepted, want panic", bad)
				}
			}()
			cfg := DefaultConfig()
			cfg.PESpeeds = bad
			New(topology.NewSingle(), workload.NewFib(2), keepLocal{}, cfg)
		}()
	}
}
