package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"

	"cwnsim/internal/experiments"
	"cwnsim/internal/machine"
	"cwnsim/internal/workload"
)

// digest hashes the simulated statistics of one run: everything a change
// that only speeds the simulator up must leave unchanged.
func digest(st *machine.Stats) string {
	h := fnv.New64a()
	words := []uint64{
		st.Events,
		uint64(st.Makespan),
		uint64(st.Result),
		uint64(st.JobsDone),
		uint64(st.JobsAborted),
		uint64(st.JobsRetried),
		uint64(st.JobsAbandoned),
	}
	for _, c := range st.MsgCounts {
		words = append(words, uint64(c))
	}
	words = append(words,
		math.Float64bits(st.SteadySojourn.Percentile(0.50)),
		math.Float64bits(st.SteadySojourn.Percentile(0.99)))
	var buf [8]byte
	for _, w := range words {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkRun reports the first invariant the run breaks, or nil.
func checkRun(spec experiments.RunSpec, tree *workload.Tree, st *machine.Stats) error {
	if spec.Arrival.IsSingle() {
		if !st.Completed {
			return fmt.Errorf("closed run did not complete")
		}
		if want := tree.Eval(); st.Result != want {
			return fmt.Errorf("result %d, tree evaluates to %d", st.Result, want)
		}
		if want := tree.Count(); st.Goals != want {
			return fmt.Errorf("%d goals, tree has %d", st.Goals, want)
		}
	}
	if st.JobsRetried+st.JobsAbandoned != st.JobsAborted {
		return fmt.Errorf("retried %d + abandoned %d != aborted %d", st.JobsRetried, st.JobsAbandoned, st.JobsAborted)
	}
	if st.JobsDone+st.JobsAbandoned > st.JobsInjected {
		return fmt.Errorf("done %d + abandoned %d > injected %d", st.JobsDone, st.JobsAbandoned, st.JobsInjected)
	}
	return nil
}

//go:embed testdata/digests.json
var pinnedJSON []byte

// pinnedDigests returns the per-run digests pinned for the workload at
// defaultSeed, or nil when none are pinned.
func pinnedDigests(name string) ([]string, error) {
	var all map[string][]string
	if err := json.Unmarshal(pinnedJSON, &all); err != nil {
		return nil, fmt.Errorf("testdata/digests.json: %w", err)
	}
	return all[name], nil
}

// digestFailures marks the runs that failed, pass by pass. passes[p][i]
// is pass p's digest of run i, empty when the run returned an error or
// broke an invariant. Each run is compared with ref[i]: the pinned digest
// when pinned is non-nil, otherwise the digest most passes agree on.
func digestFailures(passes [][]string, pinned []string) [][]bool {
	ref := pinned
	if ref == nil && len(passes) > 0 {
		ref = make([]string, len(passes[0]))
		for i := range ref {
			votes := map[string]int{}
			for _, p := range passes {
				if i < len(p) && p[i] != "" {
					votes[p[i]]++
				}
			}
			for d, n := range votes {
				if n > votes[ref[i]] || (n == votes[ref[i]] && d < ref[i]) {
					ref[i] = d
				}
			}
		}
	}
	failed := make([][]bool, len(passes))
	for p, ds := range passes {
		failed[p] = make([]bool, len(ds))
		for i, d := range ds {
			failed[p][i] = d == "" || i >= len(ref) || d != ref[i]
		}
	}
	return failed
}
