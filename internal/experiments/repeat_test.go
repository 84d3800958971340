package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestReplicate(t *testing.T) {
	rs := RunSpec{Topo: Grid(3), Workload: Fib(8), Strategy: CWN(3, 1), Seed: 10}
	reps := rs.Replicate(3)
	if len(reps) != 3 {
		t.Fatalf("got %d replicas", len(reps))
	}
	for i, r := range reps {
		if r.Seed != 10+int64(i) {
			t.Errorf("replica %d seed = %d", i, r.Seed)
		}
		if r.Topo.Label() != rs.Topo.Label() {
			t.Errorf("replica %d lost topology", i)
		}
	}
	// Unset seed defaults to base 1.
	reps = RunSpec{Topo: Grid(3), Workload: Fib(8), Strategy: CWN(3, 1)}.Replicate(2)
	if reps[0].Seed != 1 || reps[1].Seed != 2 {
		t.Errorf("default seeds = %d, %d", reps[0].Seed, reps[1].Seed)
	}
}

func TestReplicateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Replicate(0) did not panic")
		}
	}()
	RunSpec{}.Replicate(0)
}

func TestRunReplicatedAggregates(t *testing.T) {
	specs := []RunSpec{
		{Topo: Grid(4), Workload: Fib(10), Strategy: CWN(4, 1)},
		{Topo: Grid(4), Workload: Fib(10), Strategy: GM(1, 2, 20)},
	}
	aggs, _, err := RunReplicatedResults(specs, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(aggs) != 2 {
		t.Fatalf("got %d aggregates", len(aggs))
	}
	for _, a := range aggs {
		if a.Util.N() != 4 {
			t.Errorf("%s: n = %d, want 4", a.Spec.Name(), a.Util.N())
		}
		if a.Speedup.Mean() <= 0 {
			t.Errorf("%s: mean speedup %f", a.Spec.Name(), a.Speedup.Mean())
		}
		// Seed-to-seed variation exists but is bounded for a healthy
		// strategy: coefficient of variation under 50%.
		if cv := a.Speedup.Stddev() / a.Speedup.Mean(); cv > 0.5 {
			t.Errorf("%s: speedup CV %.2f too large", a.Spec.Name(), cv)
		}
		if a.String() == "" {
			t.Error("empty aggregate string")
		}
	}
	// CWN's mean must beat GM's even with seed noise.
	if aggs[0].Speedup.Mean() <= aggs[1].Speedup.Mean() {
		t.Errorf("CWN mean %.2f <= GM mean %.2f across seeds",
			aggs[0].Speedup.Mean(), aggs[1].Speedup.Mean())
	}
	tb := AggregateTable("t", aggs)
	if tb.NumRows() != 2 {
		t.Errorf("table rows = %d", tb.NumRows())
	}
}

func TestSpecFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "specs.json")
	specs := []RunSpec{
		{Topo: Grid(4), Workload: Fib(9), Strategy: CWN(4, 1), Seed: 3},
		{Topo: DLM(5, 5), Workload: DC(55), Strategy: GM(1, 1, 20)},
	}
	if err := SaveSpecs(path, "test batch", specs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadSpecs(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("loaded %d specs", len(back))
	}
	if back[0].Topo.Label() != "grid-4x4" || back[1].Strategy.Kind != "gm" || back[0].Seed != 3 {
		t.Errorf("round trip mangled specs: %+v", back)
	}
	// Loaded specs actually run.
	r := back[0].Execute()
	if r.Speedup() <= 0 {
		t.Error("loaded spec did not run")
	}
}

func TestSpecFileDefaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "specs.json")
	blob := `{
  "comment": "defaults test",
  "defaults": {"topo": {"kind":"grid","rows":4,"cols":4}, "workload": {"kind":"fib","m":9}, "seed": 7},
  "runs": [
    {"strategy": {"kind":"cwn","radius":4,"horizon":1}},
    {"strategy": {"kind":"gm","low":1,"high":2,"interval":20}, "seed": 9}
  ]
}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	specs, err := LoadSpecs(path)
	if err != nil {
		t.Fatal(err)
	}
	if specs[0].Topo.Label() != "grid-4x4" || specs[0].Workload.Label() != "fib(9)" {
		t.Errorf("defaults not applied: %+v", specs[0])
	}
	if specs[0].Seed != 7 {
		t.Errorf("default seed not applied: %d", specs[0].Seed)
	}
	if specs[1].Seed != 9 {
		t.Errorf("explicit seed overridden: %d", specs[1].Seed)
	}
}

func TestShippedSweepSpecLoads(t *testing.T) {
	specs, err := LoadSpecs("../../examples/sweeps/comparison.json")
	if err != nil {
		t.Fatalf("shipped spec file broken: %v", err)
	}
	if len(specs) != 7 {
		t.Fatalf("loaded %d specs, want 7", len(specs))
	}
	// Defaults fill in the grid and fib(15) for the first five runs.
	if specs[0].Topo.Label() != "grid-10x10" || specs[0].Workload.Label() != "fib(15)" {
		t.Errorf("defaults not applied: %+v", specs[0])
	}
	// Explicit DLM overrides survive.
	if specs[5].Topo.Label() != "dlm-10x10-s5" {
		t.Errorf("override lost: %+v", specs[5].Topo)
	}
}

func TestSpecFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := LoadSpecs(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := LoadSpecs(bad); err == nil {
		t.Error("bad JSON should error")
	}
	empty := filepath.Join(dir, "empty.json")
	os.WriteFile(empty, []byte(`{"runs": []}`), 0o644)
	if _, err := LoadSpecs(empty); err == nil {
		t.Error("empty runs should error")
	}
	badspec := filepath.Join(dir, "badspec.json")
	os.WriteFile(badspec, []byte(`{"runs": [{"topo":{"kind":"mobius"},"workload":{"kind":"fib","m":5},"strategy":{"kind":"cwn","radius":3,"horizon":1}}]}`), 0o644)
	if _, err := LoadSpecs(badspec); err == nil {
		t.Error("unknown topology kind should error at load")
	}
	_, err := LoadSpecs(badspec)
	if err == nil || !strings.Contains(err.Error(), "run 0") {
		t.Errorf("error %v should name the offending run", err)
	} else if !strings.Contains(err.Error(), "known: bus, chordal, complete, dlm, grid") {
		t.Errorf("error %v should list the known topology kinds", err)
	}
}
