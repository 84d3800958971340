package experiments

import (
	"strings"
	"testing"
)

// TestShardCrossMatrix certifies the multi-shard runtime on the pinned
// matrix with the real strategies: parallel bit-for-bit against serial
// replay, and conservation against the one-shard run at K=4. cmd/bench
// runs the same check as its regression gate; this is the tree's own
// copy.
func TestShardCrossMatrix(t *testing.T) {
	for i, c := range ShardCrossMatrix() {
		if testing.Short() && i >= 2 {
			break // -short (and the race smoke) certifies the first two cells
		}
		t.Run(c.Name, func(t *testing.T) {
			if err := ShardCrossCheck(c.Spec, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedRunSpec pins the RunSpec plumbing: Shards reaches the
// machine through RunAll (a sharded run still completes and matches
// the one-shard answer).
func TestShardedRunSpec(t *testing.T) {
	spec := RunSpec{Topo: Grid(6), Workload: Fib(10), Strategy: CWN(5, 2), Shards: 3}
	results, err := RunAll([]RunSpec{spec}, 2)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if !r.Stats.Completed {
		t.Fatal("sharded run did not complete")
	}
	seq := spec
	seq.Shards = 0
	sr, err := seq.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Result != sr.Stats.Result || r.Stats.Goals != sr.Stats.Goals {
		t.Fatalf("sharded result %d (%d goals) vs one shard %d (%d goals)",
			r.Stats.Result, r.Stats.Goals, sr.Stats.Result, sr.Stats.Goals)
	}
}

// TestShardedIdealRejected pins the SequentialOnly gate end to end: the
// ORACLE (ideal) strategy reads every PE's true load from one timeline.
// At Shards 0 and 1 its single shard owns every PE, so the run completes
// with the tree's answer; a spec naming two or more shards must fail its
// run with the reason, not crash the sweep.
func TestShardedIdealRejected(t *testing.T) {
	for _, shards := range []int{0, 1, 2, 4} {
		spec := RunSpec{Topo: Grid(4), Workload: Fib(8),
			Strategy: StrategySpec{Kind: "ideal"}, Shards: shards}
		r, err := spec.ExecuteErr()
		if shards < 2 {
			if err != nil {
				t.Fatalf("Shards=%d: ideal run failed: %v", shards, err)
			}
			if !r.Stats.Completed || r.Stats.Result != spec.Workload.Build().Eval() {
				t.Fatalf("Shards=%d: ideal run completed=%v result %d", shards, r.Stats.Completed, r.Stats.Result)
			}
			continue
		}
		if err == nil {
			t.Fatalf("Shards=%d: sharded ideal run did not fail", shards)
		}
		if !strings.Contains(err.Error(), "cannot run sharded") || !strings.Contains(err.Error(), "true loads") {
			t.Fatalf("Shards=%d: error %q does not name the SequentialOnly rejection and its reason", shards, err)
		}
	}
}
