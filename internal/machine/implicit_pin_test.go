package machine_test

import (
	"reflect"
	"testing"

	"cwnsim/internal/core"
	"cwnsim/internal/machine"
	"cwnsim/internal/scenario"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// TestImplicitTopologyRunsBitForBit pins the implicit (computed-
// neighbor) topologies at the machine level: a full run on the
// materialized form and on the implicit form of the same topology must
// produce identical Stats, field for field. The topology-level
// equivalence tests check adjacency; this one checks that the whole
// causal order — channel contention, tie-breaks, RNG consumption,
// sampling — is unchanged, which is what lets every spec-built grid,
// torus and hypercube run in the implicit form without invalidating
// any pinned number. The inputs reach each call that depends on the
// form: routing and neighbor views (CWN), the diameter (GM's proximity
// cap), nearest-live distance scans and requeue routing (crashes with
// checkpoints), and the partition and cross-shard handoff (Shards 3).
func TestImplicitTopologyRunsBitForBit(t *testing.T) {
	cwn := func(topo *topology.Topology, cfg machine.Config) *machine.Stats {
		return machine.New(topo, workload.NewFib(14), core.NewCWN(4, 2), cfg).Run()
	}
	cases := []struct {
		name string
		mat  *topology.Topology
		impl *topology.Topology
		run  func(*topology.Topology, machine.Config) *machine.Stats
		// reached checks that the run took the path the case is for.
		reached func(*machine.Stats) bool
	}{
		{name: "torus-12x12", mat: topology.NewTorus(12, 12), impl: topology.NewTorusImplicit(12, 12), run: cwn},
		{name: "grid-10x14", mat: topology.NewGrid(10, 14), impl: topology.NewGridImplicit(10, 14), run: cwn},
		{name: "hypercube-d7", mat: topology.NewHypercube(7), impl: topology.NewHypercubeImplicit(7), run: cwn},
		{
			name: "gm-grid-9x9", mat: topology.NewGrid(9, 9), impl: topology.NewGridImplicit(9, 9),
			run: func(topo *topology.Topology, cfg machine.Config) *machine.Stats {
				return machine.New(topo, workload.NewFib(14), core.NewGradient(1, 2, 20), cfg).Run()
			},
		},
		{
			name: "crash-ckpt-torus-8x8", mat: topology.NewTorus(8, 8), impl: topology.NewTorusImplicit(8, 8),
			run: func(topo *topology.Topology, cfg machine.Config) *machine.Stats {
				cfg.MaxTime = 40000
				cfg.RetryLimit = 2
				cfg.RetryBackoff = 60
				cfg.Scenario = scenario.MustParse("chaos:mtbf=800:mttr=400:until=6000:crash:domain=block:4x4@seed=3,checkpoint:every=1500:cost=2@t=0")
				c := core.NewCWN(4, 2)
				c.FailureAware = true
				return machine.NewStream(topo, machine.NewFixedInterval(workload.NewFib(9), 60, 40), c, cfg).Run()
			},
			reached: func(st *machine.Stats) bool {
				return st.GoalsRequeued > 0 && st.RootRedirects > 0 && st.JobsAborted > 0
			},
		},
		{
			name: "shards3-torus-12x12", mat: topology.NewTorus(12, 12), impl: topology.NewTorusImplicit(12, 12),
			run: func(topo *topology.Topology, cfg machine.Config) *machine.Stats {
				cfg.Shards = 3
				return cwn(topo, cfg)
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runOn := func(topo *topology.Topology) *machine.Stats {
				cfg := machine.DefaultConfig()
				cfg.Seed = 42
				cfg.SampleInterval = 100 // exercise the sampling path too
				st := c.run(topo, cfg)
				if !st.Completed {
					t.Fatalf("%s run did not complete", topo.Name())
				}
				if c.reached != nil && !c.reached(st) {
					t.Fatalf("%s run missed the path under test: %d requeued, %d root redirects, %d aborted",
						topo.Name(), st.GoalsRequeued, st.RootRedirects, st.JobsAborted)
				}
				return st
			}
			mat := runOn(c.mat)
			impl := runOn(c.impl)
			if !reflect.DeepEqual(mat, impl) {
				t.Errorf("materialized and implicit %s runs diverge", c.name)
				if mat.Makespan != impl.Makespan {
					t.Errorf("  Makespan %d vs %d", mat.Makespan, impl.Makespan)
				}
				if mat.Events != impl.Events {
					t.Errorf("  Events %d vs %d", mat.Events, impl.Events)
				}
				if !reflect.DeepEqual(mat.MsgCounts, impl.MsgCounts) {
					t.Errorf("  MsgCounts %v vs %v", mat.MsgCounts, impl.MsgCounts)
				}
				if !reflect.DeepEqual(mat.BusyPerPE, impl.BusyPerPE) {
					t.Errorf("  BusyPerPE diverges")
				}
				if !reflect.DeepEqual(mat.ChannelMsgs, impl.ChannelMsgs) {
					t.Errorf("  ChannelMsgs diverges")
				}
			}
		})
	}
}
