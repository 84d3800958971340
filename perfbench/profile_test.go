package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"cwnsim/internal/workload"
)

func TestFuncLayer(t *testing.T) {
	for fn, want := range map[string]string{
		"cwnsim/internal/sim.(*wheelSched).pop":          "sim",
		"cwnsim/internal/machine.(*Machine).Run":         "machine",
		"cwnsim/internal/core.(*cwnNode).HandleEvent":    "core",
		"cwnsim/internal/topology.(*Topology).Neighbors": "topology",
		"cwnsim/internal/metrics.(*Sample).Add":          "metrics",
		"cwnsim/internal/experiments.RunAll.func1":       "experiments",
		"cwnsim/internal/analysis/analysistest.Run":      "analysis",
		"runtime.gcDrain":                                "gc",
		"runtime.gcBgMarkWorker":                         "gc",
		"runtime.scanobject":                             "gc",
		"runtime.(*gcWork).tryGet":                       "gc",
		"runtime.bgsweep":                                "gc",
		"runtime.mallocgc":                               "runtime",
		"runtime.memmove":                                "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":   "runtime",
		"sort.insertionSort":                             "",
		"math/rand.(*Rand).Int63":                        "",
		"main.runPass":                                   "",
	} {
		if got := funcLayer(fn); got != want {
			t.Errorf("funcLayer(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []string // leaf first
		want  string
	}{
		{[]string{"sort.insertionSort", "sort.Sort", "cwnsim/internal/metrics.(*Sample).sort"}, "metrics"},
		{[]string{"runtime.memmove", "runtime.growslice", "cwnsim/internal/machine.(*PE).Accept"}, "runtime"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "cwnsim/internal/sim.(*Engine).At"}, "gc"},
		{[]string{"math/rand.(*Rand).Int63", "main.runPass", "main.main"}, "runtime"},
		{[]string{"cwnsim/internal/core.(*cwnNode).walk", "cwnsim/internal/machine.(*PE).deliver"}, "core"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %q, want %q", tc.stack, got, tc.want)
		}
	}
}

// TestSelfSharesFromRealProfile profiles work inside internal/workload
// and checks the reader folds Go's own profile encoding into shares that
// sum to 100 with the workload layer on top.
func TestSelfSharesFromRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		sink += workload.NewFib(16).Count()
	}
	pprof.StopCPUProfile()
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	shares, err := selfShares(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g, want 100: %v", sum, shares)
	}
	if shares["workload"] == 0 {
		t.Errorf("no samples attributed to workload: %v", shares)
	}
}
