package machine

// Sharded observability contracts (PR 8): one shard reproduces the
// sequential trace and sampling series bit for bit; K >= 2 shards
// conserve per-kind counts for the placement-independent event kinds
// and produce identical observability output under the parallel and
// serial window schedules; monitored sharded runs emit full-machine
// frames.

import (
	"reflect"
	"testing"

	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/trace"
	"cwnsim/internal/workload"
)

// obsRun executes one shard-matrix cell with the full observability
// surface on: tracing into sink, sampling and per-PE monitoring.
func obsRun(c shardCase, shards int, serial bool, sink trace.Sink) *Stats {
	cfg := DefaultConfig()
	cfg.Shards = shards
	cfg.ShardSerial = serial
	cfg.SampleInterval = 40
	cfg.MonitorPE = true
	cfg.Trace = sink
	tree := workload.NewFib(10)
	var src JobSource = NewSingleJob(tree)
	if c.open {
		src = NewFixedInterval(tree, 120, 8)
	}
	return NewStream(c.topo(), src, c.strat, cfg).Run()
}

// conservedKinds are the event kinds whose totals are a function of the
// workload alone, not of goal placement: every goal is created,
// accepted, executed and (non-roots) responded-to exactly once under
// the test strategies. GoalSent is excluded — walk lengths depend on
// placement, which differs between the sequential and the K >= 2 runs'
// salted RNG streams.
func conservedKinds() []trace.Kind {
	return []trace.Kind{
		trace.GoalCreated, trace.GoalAccepted, trace.GoalExecStarted,
		trace.GoalExecuted, trace.RespSent, trace.RespDelivered,
	}
}

// TestShardOneObservabilityBitForBit pins the strongest contract: a
// one-shard group replays the sequential machine's trace Record call
// sequence, monitor frames and sampling series bit for bit.
func TestShardOneObservabilityBitForBit(t *testing.T) {
	for _, c := range shardCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var seqCol, oneCol trace.Collector
			seq := obsRun(c, 0, false, &seqCol)
			one := obsRun(c, 1, false, &oneCol)
			if !reflect.DeepEqual(seqCol.Events, oneCol.Events) {
				t.Fatalf("one-shard trace diverged from sequential: %d vs %d events", len(seqCol.Events), len(oneCol.Events))
			}
			if !reflect.DeepEqual(seq.Monitor.Frames, one.Monitor.Frames) {
				t.Fatalf("one-shard monitor frames diverged from sequential")
			}
			if !reflect.DeepEqual(seq.Timeline.Points, one.Timeline.Points) {
				t.Fatalf("one-shard Timeline diverged: %v vs %v", seq.Timeline.Points, one.Timeline.Points)
			}
			if !reflect.DeepEqual(seq.QueueLen.Points, one.QueueLen.Points) {
				t.Fatalf("one-shard QueueLen diverged")
			}
			if !reflect.DeepEqual(seq.QueueImbalance.Points, one.QueueImbalance.Points) {
				t.Fatalf("one-shard QueueImbalance diverged")
			}
			if len(seqCol.Events) == 0 || len(seq.Monitor.Frames) == 0 {
				t.Fatalf("vacuous comparison: %d events, %d frames", len(seqCol.Events), len(seq.Monitor.Frames))
			}
		})
	}
}

// TestShardTraceConservation pins the K >= 2 contract against the
// sequential run: the placement-independent event kinds keep their
// exact per-kind totals even though the shards route goals along
// different walks.
func TestShardTraceConservation(t *testing.T) {
	for _, c := range shardCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var seqCol, parCol trace.Collector
			obsRun(c, 0, false, &seqCol)
			obsRun(c, 3, false, &parCol)
			for _, k := range conservedKinds() {
				if s, p := seqCol.Count(k), parCol.Count(k); s != p {
					t.Errorf("%v: sequential %d events, 3 shards %d", k, s, p)
				}
			}
			if seqCol.Count(trace.GoalCreated) == 0 {
				t.Fatal("vacuous conservation check: no goals created")
			}
		})
	}
}

// TestShardTraceParallelMatchesSerial pins determinism of the merged
// observability output itself: the parallel window schedule and its
// serial replay produce identical trace streams, monitor frames and
// sampling series — byte for byte, not just conserved counts.
func TestShardTraceParallelMatchesSerial(t *testing.T) {
	atLeastTwoProcs(t)
	for _, c := range shardCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var parCol, serCol trace.Collector
			par := obsRun(c, 3, false, &parCol)
			ser := obsRun(c, 3, true, &serCol)
			if !reflect.DeepEqual(parCol.Events, serCol.Events) {
				t.Fatalf("parallel trace diverged from serial replay: %d vs %d events", len(parCol.Events), len(serCol.Events))
			}
			if !reflect.DeepEqual(par.Monitor.Frames, ser.Monitor.Frames) {
				t.Fatalf("parallel monitor frames diverged from serial replay")
			}
			if !reflect.DeepEqual(par.Timeline.Points, ser.Timeline.Points) ||
				!reflect.DeepEqual(par.QueueLen.Points, ser.QueueLen.Points) ||
				!reflect.DeepEqual(par.QueueImbalance.Points, ser.QueueImbalance.Points) {
				t.Fatalf("parallel sampling series diverged from serial replay")
			}
			if len(parCol.Events) == 0 {
				t.Fatal("vacuous comparison: no events traced")
			}
		})
	}
}

// TestShardMonitoredSmoke32x32 is the CI race-detector smoke: a fully
// monitored and traced 4-shard run on a 32x32 grid completes and emits
// full-machine frames — every frame covers all 1024 PEs with in-range
// utilizations, at strictly increasing synchronized instants.
func TestShardMonitoredSmoke32x32(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Shards = 4
	cfg.SampleInterval = 100
	cfg.MonitorPE = true
	var col trace.Collector
	cfg.Trace = &col
	topo := topology.NewGrid(32, 32)
	st := NewStream(topo, NewFixedInterval(workload.NewFib(12), 300, 6), spread{}, cfg).Run()
	if !st.Completed {
		t.Fatalf("monitored sharded run did not complete: %+v", st)
	}
	if len(st.Monitor.Frames) == 0 {
		t.Fatal("no monitor frames")
	}
	prev := sim.Time(-1)
	for i, f := range st.Monitor.Frames {
		if len(f.Util) != topo.Size() {
			t.Fatalf("frame %d covers %d PEs, want %d", i, len(f.Util), topo.Size())
		}
		if f.At <= prev {
			t.Fatalf("frame %d instant %d not after %d", i, f.At, prev)
		}
		prev = f.At
		for pe, u := range f.Util {
			if u < 0 || u > 1.0000001 {
				t.Fatalf("frame %d PE %d utilization %v out of range", i, pe, u)
			}
		}
	}
	for _, p := range st.Timeline.Points {
		if p.V < 0 || p.V > 100.0000001 {
			t.Fatalf("timeline point %v out of [0,100]", p)
		}
	}
	if len(col.Events) == 0 {
		t.Fatal("no trace events recorded")
	}
}
