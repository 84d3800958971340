package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cwnsim/internal/machine"
	"cwnsim/internal/metrics"
	"cwnsim/internal/workload"
)

// specProbes are spec files that each break one rule of
// RunSpec.Validate. All but the last two are a grid:4x4 / fib:5 /
// cwn:3:1 run with one field changed.
var specProbes = []struct {
	name, fields, want string
}{
	{"unparsable scenario", `"scenario": "garbage@@"`, "scenario"},
	{"scenario PE off the machine", `"scenario": "fail:pes=99@t=10"`, "PE 99 out of range"},
	{"warm-up past the horizon", `"warmup": 100, "maxTime": 50`, "Warmup 100 must precede MaxTime 50"},
	{"negative warm-up", `"warmup": -1`, "Warmup must be non-negative"},
	{"negative horizon", `"maxTime": -5`, "maxTime must be non-negative"},
	{"negative sampling", `"sampleInterval": -5`, "sampleInterval must be non-negative"},
	{"monitor without sampling", `"monitorPE": true`, "MonitorPE requires SampleInterval"},
	{"misspelled load metric", `"loadMetric": "qeue"`, `loadMetric "qeue"`},
	{"negative goal hop", `"goalHopTime": -3`, "goalHopTime must be non-negative"},
	{"negative response hop", `"respHopTime": -3`, "respHopTime must be non-negative"},
	{"hop time past the clock", `"goalHopTime": 9223372036854775000`, "GoalHopTime 9223372036854775000 exceeds"},
	{"retry backoff past the clock", `"retryBackoff": 68719476737`, "RetryBackoff 68719476737 exceeds"},
	{"series bound of one", `"seriesBound": 1`, "SeriesBound must be 0"},
	{"negative sojourn bound", `"sojournBound": -1`, "SojournBound must be non-negative"},
	{"negative retry limit", `"retryLimit": -1`, "RetryLimit must be non-negative"},
	{"negative shards", `"shards": -2`, "Shards must be non-negative"},
	{"link between non-neighbors", `"scenario": "droplink:a=0:b=5@t=50"`, "PEs 0 and 5 share no channel"},
	{"failures leaving no PE live", `"scenario": "fail:pes=50%@t=10,fail:pes=0+1+2+3+4+5+6+7@t=20"`, "fail:pes=0+1+2+3+4+5+6+7@t=20 fails the last live PE"},
	{"chaos strikes past the cap", `"scenario": "chaos:mtbf=1.5:mttr=1@seed=1"`, "mtbf 1.5 expects 1333333 strikes"},
	{"checkpoint ticks past the cap", `"scenario": "checkpoint:every=1:cost=1@t=0"`, "every 1 makes 2000000 ticks"},
	{"sharded ideal", `"strategy": {"kind": "ideal"}, "shards": 2`, "cannot run sharded"},
	{"4.9 billion PEs", `"topo": {"kind": "torus", "rows": 70000, "cols": 70000}`, "at most 1073741824 PEs"},
}

// probeFile is a one-run spec file: the base run with fields, which
// override its keys.
func probeFile(fields string) string {
	base := map[string]string{
		"topo":     `{"kind": "grid", "rows": 4, "cols": 4}`,
		"workload": `{"kind": "fib", "m": 5}`,
		"strategy": `{"kind": "cwn", "radius": 3, "horizon": 1}`,
	}
	run := []string{fields}
	for _, k := range []string{"topo", "workload", "strategy"} {
		if !strings.Contains(fields, `"`+k+`"`) {
			run = append(run, `"`+k+`": `+base[k])
		}
	}
	return `{"runs": [{` + strings.Join(run, ", ") + `}]}`
}

func writeSpecFile(t *testing.T, blob string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLoadSpecsRejectsInvalidRuns holds LoadSpecs to rejecting every
// probe with an error that names the run and the broken rule.
func TestLoadSpecsRejectsInvalidRuns(t *testing.T) {
	for _, p := range specProbes {
		_, err := LoadSpecs(writeSpecFile(t, probeFile(p.fields)))
		if err == nil {
			t.Errorf("%s: LoadSpecs accepted %s", p.name, p.fields)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "run 0: ") || !strings.Contains(msg, "|fib(5): ") || !strings.Contains(msg, p.want) {
			t.Errorf("%s: error %q does not name the run and %q", p.name, msg, p.want)
		}
	}
	// The torus fails the same 2^30 rule as the CLI string.
	_, parseErr := ParseTopo("torus:70000x70000")
	_, loadErr := LoadSpecs(writeSpecFile(t, probeFile(specProbes[len(specProbes)-1].fields)))
	if parseErr == nil || loadErr == nil || !strings.Contains(loadErr.Error(), parseErr.Error()) {
		t.Errorf("ParseTopo error %v and LoadSpecs error %v differ", parseErr, loadErr)
	}
}

// TestSpecFileDefaultsEveryField: a defaults block fills every
// zero-valued field of a run but its label.
func TestSpecFileDefaultsEveryField(t *testing.T) {
	defaults := RunSpec{
		Label: "not inherited", Topo: Grid(4), Workload: Fib(5), Strategy: CWN(3, 1),
		Arrival: IntervalArrivals(50, 4), Seed: 7, Warmup: 10, SampleInterval: 20, MonitorPE: true,
		LoadMetric: "queue+pending", GoalHopTime: 3, RespHopTime: 4, MaxTime: 90_000, SojournBound: 64,
		SeriesBound: 128, Shards: 2, ShardSerial: true, Scenario: "crash:pes=1@t=100,recover@t=200",
		RetryLimit: 3, RetryBackoff: 5,
	}
	blob, err := json.Marshal(defaults)
	if err != nil {
		t.Fatal(err)
	}
	specs, err := LoadSpecs(writeSpecFile(t, `{"defaults": `+string(blob)+`, "runs": [{"label": "mine"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := defaults
	want.Label = "mine"
	if !reflect.DeepEqual(specs[0], want) {
		t.Errorf("defaults applied as\n%+v\nwant\n%+v", specs[0], want)
	}
}

// TestSpecFileRejectsUnknownKeys: a misspelled key is an error, not a
// silently ignored setting.
func TestSpecFileRejectsUnknownKeys(t *testing.T) {
	for _, fields := range []string{`"sampleIntrval": 100`, `"topo": {"kind": "grid", "rows": 4, "colz": 4}`, `"noGoalDetail": true`} {
		_, err := LoadSpecs(writeSpecFile(t, probeFile(fields)))
		if err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("LoadSpecs with %s returned %v, want an unknown-field error", fields, err)
		}
	}
}

// TestValidateAllocatesNothing: Validate checks a 2^30-PE machine
// without building it, and a scenario without memory in the machine
// size (checked on 2^22 PEs, where a per-PE table would take over
// 100 MiB).
func TestValidateAllocatesNothing(t *testing.T) {
	rs := RunSpec{Topo: Grid(1 << 15), Workload: Fib(30), Strategy: CWN(9, 2), Arrival: PoissonArrivals(50, 1000)}
	var err error
	if allocs := testing.AllocsPerRun(10, func() { err = rs.Validate() }); allocs != 0 || err != nil {
		t.Fatalf("Validate of %d PEs: %v allocs, error %v", rs.Topo.PEs(), allocs, err)
	}
	rs.Topo, rs.Scenario = Grid(1<<11), "fail:pes=25%@t=10,crash:pes=3+3@t=20,recover@t=30"
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = rs.Validate()
	runtime.ReadMemStats(&after)
	if bytes := after.TotalAlloc - before.TotalAlloc; bytes > 1<<20 || err != nil {
		t.Fatalf("Validate of %d PEs with a scenario: %d bytes, error %v", rs.Topo.PEs(), bytes, err)
	}
}

// fuzzHorizon caps a fuzzed run's MaxTime: a few thousand units carry a
// small machine through its load broadcasts, goal traffic and most
// scripted ops in milliseconds.
const fuzzHorizon = 4000

// FuzzLoadSpecs holds LoadSpecs to its contract on arbitrary files: it
// never panics, and every run it accepts with at most 1024 PEs and a
// small tree builds its machine. A run of at most 64 PEs and a bounded
// stream also runs to fuzzHorizon, keeping the invariants of
// checkFuzzRun; it must equal a second run from a fresh build, and a
// run of two or more shards must equal its serial replay. Every build
// is held to fuzzHorizon, which bounds what chaos and checkpoint
// generators expand to.
func FuzzLoadSpecs(f *testing.F) {
	for _, p := range specProbes {
		f.Add([]byte(probeFile(p.fields)))
	}
	f.Add([]byte(`{"defaults": {"topo": {"kind": "dlm", "rows": 4, "cols": 4, "span": 2}, "workload": {"kind": "dc", "m": 1, "n": 40}},
		"runs": [{"strategy": {"kind": "gm", "low": 1, "high": 2, "interval": 20}, "shards": 2, "sampleInterval": 50, "monitorPE": true,
		"arrival": {"kind": "burst", "burst": 3, "gap": 100, "bursts": 2}, "scenario": "crash:pes=1@t=100,recover@t=300", "retryLimit": 2}]}`))
	f.Add([]byte(`{"runs": [{"topo": {"kind": "torus", "rows": 6, "cols": 6}, "workload": {"kind": "fib", "m": 9},
		"strategy": {"kind": "cwn", "radius": 4, "horizon": 1}, "shards": 4, "arrival": {"kind": "interval", "gap": 150, "jobs": 20},
		"scenario": "droplink:a=14:b=20@t=300,restorelink:a=14:b=20@t=1500,fail:pes=3@t=400,recover@t=900"}]}`))
	// The only job is abandoned at the second crash, so the run
	// completes with no job done; and 4×4-block crash chaos with
	// checkpoints and a retry backoff on two shards.
	f.Add([]byte(`{"runs": [{"topo": {"kind": "grid", "rows": 4, "cols": 4}, "workload": {"kind": "fib", "m": 12},
		"strategy": {"kind": "cwn", "radius": 5, "horizon": 2}, "shards": 2, "retryLimit": 1,
		"scenario": "crash:pes=50%@t=30,recover@t=40,crash:pes=0+1+2+3+4+5+6+7@t=60,recover@t=70"}]}`))
	f.Add([]byte(`{"runs": [{"topo": {"kind": "torus", "rows": 8, "cols": 8}, "workload": {"kind": "fib", "m": 9},
		"strategy": {"kind": "cwn", "radius": 4, "horizon": 1}, "shards": 2, "arrival": {"kind": "interval", "gap": 200, "jobs": 12},
		"scenario": "chaos:mtbf=300:mttr=150:crash:domain=block:4x4@seed=5,checkpoint:every=250:cost=2@t=0", "retryLimit": 2, "retryBackoff": 20}]}`))
	// A scripted, sampled Poisson stream on two shards whose windowed
	// sojourn series thin past SeriesBound.
	f.Add([]byte(`{"runs": [{"topo": {"kind": "grid", "rows": 6, "cols": 6}, "workload": {"kind": "fib", "m": 8},
		"strategy": {"kind": "cwn", "radius": 4, "horizon": 1}, "shards": 2, "sampleInterval": 20, "seriesBound": 4, "warmup": 300,
		"arrival": {"kind": "poisson", "mean": 40, "jobs": 80}, "scenario": "slow:pes=50%:x=0.5@t=500,restore@t=2000"}]}`))
	// Two fails that together leave no PE live are refused; with a
	// recover between them, the run goes ahead.
	for _, script := range []string{"fail:pes=0@t=10,fail:pes=1@t=20", "fail:pes=0@t=10,recover@t=15,fail:pes=1@t=20"} {
		f.Add([]byte(`{"runs": [{"topo": {"kind": "grid", "rows": 1, "cols": 2}, "workload": {"kind": "fib", "m": 5},
		"strategy": {"kind": "cwn", "radius": 9, "horizon": 2}, "scenario": "` + script + `"}]}`))
	}
	// One file per fuzzing process: its inputs run one at a time.
	path := filepath.Join(f.TempDir(), "spec.json")
	f.Fuzz(func(t *testing.T, blob []byte) {
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		specs, err := LoadSpecs(path)
		if err != nil {
			return
		}
		for _, rs := range specs {
			if rs.Topo.PEs() > 1024 || !smallTree(rs.Workload) {
				continue
			}
			cfg := rs.Config()
			cfg.MaxTime = min(cfg.MaxTime, fuzzHorizon)
			cfg.Warmup = min(cfg.Warmup, cfg.MaxTime-1)
			topo, tree := rs.Topo.build(), rs.Workload.build()
			build := func(cfg machine.Config) *machine.Machine {
				return machine.NewStream(topo, rs.Arrival.Build(tree), rs.Strategy.Build(), cfg)
			}
			if topo.Size() > 64 || !smallStream(rs.Arrival) {
				build(cfg)
				continue
			}
			cfg.ShardSerial = false
			m := build(cfg)
			st := m.Run()
			checkFuzzRun(t, rs, tree, m, st)
			checkSameRun(t, rs, "run", "rerun from a fresh build", st, build(cfg).Run())
			if cfg.Shards >= 2 {
				cfg.ShardSerial = true
				checkSameRun(t, rs, "parallel run", "serial replay", st, build(cfg).Run())
			}
		}
	})
}

// smallStream reports whether as injects few enough jobs by the fuzz
// horizon: streams other than bursts inject at most one per time unit,
// and bursts are held to 64 rounds of at most 64.
func smallStream(as ArrivalSpec) bool {
	return as.Kind != "burst" || as.Burst <= 64 && as.Bursts <= 64
}

// checkFuzzRun checks the invariants perfbench's checkRun holds every
// benchmark run to, plus no lost goal: a closed run whose job was done
// computed its tree's value over all its goals (a capped horizon may
// stop one short, and a crash past its retry limit abandons the job),
// every abort was retried or abandoned, no more jobs left than were
// injected and, in a completed run, every injected job left and no PE
// of m holds a pending task. The makespan is never negative and the
// utilization lies in [0, 1].
func checkFuzzRun(t *testing.T, rs RunSpec, tree *workload.Tree, m *machine.Machine, st *machine.Stats) {
	t.Helper()
	if rs.Arrival.IsSingle() {
		if st.JobsDone == 1 && st.Result != tree.Eval() {
			t.Fatalf("%s: result %d, tree evaluates to %d", rs.Name(), st.Result, tree.Eval())
		}
		if st.Goals != tree.Count() {
			t.Fatalf("%s: %d goals, tree has %d", rs.Name(), st.Goals, tree.Count())
		}
	}
	if st.JobsRetried+st.JobsAbandoned != st.JobsAborted {
		t.Fatalf("%s: retried %d + abandoned %d != aborted %d", rs.Name(), st.JobsRetried, st.JobsAbandoned, st.JobsAborted)
	}
	if st.JobsDone+st.JobsAbandoned > st.JobsInjected {
		t.Fatalf("%s: done %d + abandoned %d > injected %d", rs.Name(), st.JobsDone, st.JobsAbandoned, st.JobsInjected)
	}
	if st.Completed && st.JobsDone+st.JobsAbandoned != st.JobsInjected {
		t.Fatalf("%s: completed with done %d + abandoned %d != injected %d", rs.Name(), st.JobsDone, st.JobsAbandoned, st.JobsInjected)
	}
	if st.Completed {
		pending := 0
		for i := 0; i < m.NumPEs(); i++ {
			pending += m.PE(i).PendingTasks()
		}
		if pending != 0 {
			t.Fatalf("%s: completed with %d pending task(s) left", rs.Name(), pending)
		}
	}
	if u := st.Utilization(); st.Makespan < 0 || u < 0 || u > 1 {
		t.Fatalf("%s: makespan %d, utilization %g", rs.Name(), st.Makespan, u)
	}
	if st.Stalled {
		t.Fatalf("%s: stalled with %d job(s) in flight and no work anywhere", rs.Name(), st.JobsInjected-st.JobsDone)
	}
}

// checkSameRun checks that two runs of rs did the same work to the same
// end: events, makespan, result, message counts, the job counters and
// both windowed sojourn series. FuzzLoadSpecs holds a run to its rerun
// from a fresh build (equal seeds give equal runs) and a sharded run on
// its parallel runners to its single-goroutine replay.
func checkSameRun(t *testing.T, rs RunSpec, aName, bName string, a, b *machine.Stats) {
	t.Helper()
	type outcome struct {
		Events           uint64
		Makespan, Result int64
		MsgCounts        [4]int64
		Jobs             [5]int64 // injected, done, aborted, retried, abandoned
		Windows          string   // SojournWindows and InjSojournWindows
	}
	of := func(st *machine.Stats) outcome {
		return outcome{st.Events, int64(st.Makespan), st.Result, st.MsgCounts,
			[5]int64{st.JobsInjected, st.JobsDone, st.JobsAborted, st.JobsRetried, st.JobsAbandoned},
			windowBits(st)}
	}
	if x, y := of(a), of(b); x != y {
		t.Fatalf("%s: %s %+v, %s %+v", rs.Name(), aName, x, bName, y)
	}
}

// windowBits renders both windowed sojourn series as each one's length
// and its points' float bits, so two equal series match even where a
// value is NaN.
func windowBits(st *machine.Stats) string {
	var bits []uint64
	for _, s := range []metrics.Series{st.SojournWindows, st.InjSojournWindows} {
		bits = append(bits, uint64(len(s.Points)))
		for _, p := range s.Points {
			bits = append(bits, math.Float64bits(p.T), math.Float64bits(p.V))
		}
	}
	return fmt.Sprint(bits)
}
