package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"cwnsim/internal/machine"
	"cwnsim/internal/scenario"
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
	{"series bound of one", `"seriesBound": 1`, "SeriesBound must be 0"},
	{"negative sojourn bound", `"sojournBound": -1`, "SojournBound must be non-negative"},
	{"negative retry limit", `"retryLimit": -1`, "RetryLimit must be non-negative"},
	{"negative shards", `"shards": -2`, "Shards must be non-negative"},
	{"link between non-neighbors", `"scenario": "droplink:a=0:b=5@t=50"`, "PEs 0 and 5 share no channel"},
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

// FuzzLoadSpecs holds LoadSpecs to its contract on arbitrary files: it
// never panics, and every run it accepts with at most 1024 PEs and a
// small tree builds its machine.
func FuzzLoadSpecs(f *testing.F) {
	for _, p := range specProbes {
		f.Add([]byte(probeFile(p.fields)))
	}
	f.Add([]byte(`{"defaults": {"topo": {"kind": "dlm", "rows": 4, "cols": 4, "span": 2}, "workload": {"kind": "dc", "m": 1, "n": 40}},
		"runs": [{"strategy": {"kind": "gm", "low": 1, "high": 2, "interval": 20}, "shards": 2, "sampleInterval": 50, "monitorPE": true,
		"arrival": {"kind": "burst", "burst": 3, "gap": 100, "bursts": 2}, "scenario": "crash:pes=1@t=100,recover@t=300", "retryLimit": 2}]}`))
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
			if expands(cfg.Scenario) {
				continue // its expansion grows with MaxTime
			}
			tree := rs.Workload.build()
			machine.NewStream(rs.Topo.build(), rs.Arrival.Build(tree), rs.Strategy.Build(), cfg)
		}
	})
}

// expands reports whether sc holds a chaos or checkpoint generator.
func expands(sc *scenario.Script) bool {
	return !sc.Empty() && slices.ContainsFunc(sc.Events, func(e scenario.Event) bool {
		return e.Kind == scenario.Chaos || e.Kind == scenario.Checkpoint
	})
}
