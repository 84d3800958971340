package main

import (
	"encoding/json"
	"flag"
	"os"
	"reflect"
	"testing"

	"cwnsim/internal/experiments"
)

var updateDigests = flag.Bool("update-digests", false, "rewrite testdata/digests.json from the current simulator")

// TestPinnedDigests recomputes every workload's per-run digests at the
// default seed and compares them with testdata/digests.json. A change
// that only speeds the simulator up leaves them unchanged; run with
// -update-digests after a change that is meant to alter results.
func TestPinnedDigests(t *testing.T) {
	got := map[string][]string{}
	for _, w := range workloads {
		if testing.Short() && w.name == "fault-shard" {
			if *updateDigests {
				t.Fatal("-update-digests needs the full suite; drop -short")
			}
			continue
		}
		res, err := runPass(w, passOptions{seed: defaultSeed})
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(res.Failures) > 0 {
			t.Fatalf("%s: %v", w.name, res.Failures)
		}
		got[w.name] = res.Digests
	}
	if *updateDigests {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/digests.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name, digests := range got {
		pinned, err := pinnedDigests(name)
		if err != nil {
			t.Fatal(err)
		}
		if pinned == nil {
			t.Errorf("%s: no digests pinned", name)
			continue
		}
		for p, fails := range digestFailures([][]string{digests}, pinned) {
			for i, f := range fails {
				if f {
					t.Errorf("%s pass %d run %d: digest %s, pinned %v", name, p, i, digests[i], pinned)
				}
			}
		}
	}
}

func TestPerturbedDigestFails(t *testing.T) {
	pinned := []string{"aa", "bb", "cc"}
	perturbed := []string{"aa", "bx", "cc"}
	errored := []string{"aa", "bb", ""}
	got := digestFailures([][]string{pinned, perturbed, errored}, pinned)
	want := [][]bool{{false, false, false}, {false, true, false}, {false, false, true}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("against pinned: %v, want %v", got, want)
	}
	// Without pinned digests, the passes at one seed vote: the odd one
	// out fails.
	got = digestFailures([][]string{pinned, perturbed, pinned}, nil)
	want = [][]bool{{false, false, false}, {false, true, false}, {false, false, false}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("by vote: %v, want %v", got, want)
	}
}

func TestPaperSweepIsSpeedupSuite(t *testing.T) {
	if got, want := paperSweep(0), experiments.SpeedupSuite(false); !reflect.DeepEqual(got, want) {
		t.Errorf("paperSweep(0) differs from experiments.SpeedupSuite(false): %d vs %d specs", len(got), len(want))
	}
	for _, s := range paperSweep(9) {
		if s.Seed != 9 {
			t.Fatalf("seed not applied: %+v", s)
		}
	}
}

func TestFaultShardSeedSetsScenario(t *testing.T) {
	s := faultShardSpec(42)
	if s.Seed != 42 || s.Scenario != faultScript(42) {
		t.Errorf("seed 42 gave Seed %d, Scenario %q", s.Seed, s.Scenario)
	}
}
