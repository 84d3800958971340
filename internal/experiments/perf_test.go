package experiments

import (
	"math"
	"runtime"
	"testing"

	"cwnsim/internal/machine"
)

// TestHotPathAllocationBudget guards the PR 2 pooled paths end to end:
// with events, wire messages, goals, pending tasks and job states all
// recycled, a whole open-system run must average well under one
// allocation per ten processed events (the pre-optimization hot path
// cost ~2.3 allocations per event). The budget is deliberately loose —
// it catches a reverted pool, not scheduler noise.
func TestHotPathAllocationBudget(t *testing.T) {
	spec := RunSpec{
		Topo:     Grid(5),
		Workload: Fib(8),
		Strategy: CWN(3, 1),
		Arrival:  PoissonArrivals(40, 150),
	}
	// Warm the topology/tree caches so they are not billed to the run.
	spec.Topo.Build()
	spec.Workload.Build()
	r, err := spec.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	events := r.Stats.Events
	if events == 0 {
		t.Fatal("run processed no events")
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := spec.ExecuteErr(); err != nil {
			t.Fatal(err)
		}
	})
	if perEvent := allocs / float64(events); perEvent > 0.1 {
		t.Errorf("hot path allocates %.4f per event (%.0f per run over %d events), budget 0.1 — a pool has regressed",
			perEvent, allocs, events)
	}
}

// TestLargeGridPoissonSmoke drives the scale regime the ROADMAP targets
// — a 32×32 grid under a 2000-job Poisson stream — end to end, with the
// bounded sojourn sample exercised so a 100k-job stream would not hold
// every observation. Guarded by -short: it is the suite's one
// deliberately big run.
func TestLargeGridPoissonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 32x32 2k-job smoke in -short mode")
	}
	spec := RunSpec{
		Topo:           Grid(32),
		Workload:       Fib(9),
		Strategy:       CWN(9, 2),
		Arrival:        PoissonArrivals(40, 2000),
		Warmup:         4_000,
		SampleInterval: 50,
		SojournBound:   500,
		SeriesBound:    64,
	}
	r, err := spec.ExecuteErr()
	if err != nil {
		t.Fatal(err)
	}
	st := r.Stats
	if !st.Completed {
		t.Fatalf("2k-job stream did not drain: %d/%d jobs done at t=%d", st.JobsDone, st.JobsInjected, st.Makespan)
	}
	if st.JobsDone != 2000 {
		t.Fatalf("JobsDone = %d, want 2000", st.JobsDone)
	}
	if !st.SteadySojourn.Bounded() {
		t.Fatal("steady sojourn sample did not collapse under SojournBound")
	}
	if len(st.JobRecords) != 500 {
		t.Fatalf("JobRecords holds %d records under SojournBound=500 — run memory is not bounded", len(st.JobRecords))
	}
	// The collapsed sample still counts every job injected after the
	// warm-up: all 2000 completed, and those injected before it complete
	// among the first 500, so the records count them.
	early := 0
	for _, rec := range st.JobRecords {
		if int64(rec.InjectedAt) < spec.Warmup {
			early++
		}
	}
	if n := st.SteadySojourn.N(); n != 2000-early {
		t.Fatalf("bounded SteadySojourn sample n = %d, want %d (2000 completions, %d injected in the warm-up)", n, 2000-early, early)
	}
	if n := st.Timeline.Len(); n == 0 || n > 64 {
		t.Fatalf("bounded Timeline holds %d points under SeriesBound=64", n)
	}
	if !st.Timeline.Bounded() {
		t.Fatal("Timeline did not thin under SeriesBound — run memory is not bounded")
	}
	if p99 := st.SojournP99(); math.IsNaN(p99) || p99 <= 0 {
		t.Fatalf("implausible p99 sojourn %f", p99)
	}
	if u := st.SteadyUtilization(); u <= 0 || u > 1 {
		t.Fatalf("SteadyUtilization = %f, want in (0,1]", u)
	}
	if tput := st.SteadyThroughput(); tput <= 0 {
		t.Fatalf("SteadyThroughput = %f, want > 0", tput)
	}
	if st.Events < 1_000_000 {
		t.Fatalf("only %d events — the large grid did not actually run at scale", st.Events)
	}
}

// TestConstructionBudget holds machine construction to its per-PE
// memory budget on a 262,144-PE torus (built, like every spec torus, in
// implicit form). The struct-of-arrays layout with its receiver-slot
// table measures 789 B/PE and 2.067 allocations/PE (the serviceDone
// method value, the strategy's per-PE node, and one 512-byte scheduler
// chunk per 15 PEs' first load ticks); the budgets carry 45–75%
// headroom so noise cannot trip them but one accidental per-PE
// allocation — a map, a closure, a slice that escaped the flat
// backings — does. Guarded by -short like TestLargeGridPoissonSmoke.
func TestConstructionBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping 262,144-PE construction in -short mode")
	}
	const (
		budgetBytesPerPE  = 1400
		budgetAllocsPerPE = 3.0
	)
	ts := Torus(512)
	topo, tree, strat := ts.Build(), Fib(9).Build(), CWN(9, 2).Build()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	mach := machine.New(topo, tree, strat, machine.DefaultConfig())
	// A GC fence before the second read: bytes/PE is the machine the run
	// retains, not construction garbage (append-growth copies of the
	// flat adjacency backings). The machine must stay live past the
	// read, or the fence frees it and the delta reads zero.
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(mach)
	pes := float64(ts.PEs())
	bytesPerPE := float64(m1.HeapAlloc-m0.HeapAlloc) / pes
	allocsPerPE := float64(m1.Mallocs-m0.Mallocs) / pes
	t.Logf("%d PEs: %.0f B/PE, %.3f allocs/PE", ts.PEs(), bytesPerPE, allocsPerPE)
	if bytesPerPE > budgetBytesPerPE || allocsPerPE > budgetAllocsPerPE {
		t.Fatalf("construction regressed: %.0f B/PE, %.3f allocs/PE (budget %d B/PE, %.1f allocs/PE)",
			bytesPerPE, allocsPerPE, budgetBytesPerPE, budgetAllocsPerPE)
	}
}
