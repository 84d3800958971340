package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cwnsim/internal/experiments"
)

// runConfig is one `run` invocation: a set of passes per workload.
type runConfig struct {
	seed int64
	// passes is the minimum pass count; 0 selects the workload's
	// suggested count, or 3 when seconds is set.
	passes int
	// seconds keeps adding passes until this much host time has passed.
	seconds float64
	trace   bool
	out     string
	// micro holds the microbenchmark results of a traced run, measured
	// once per run and reported with every workload.
	micro map[string]float64
}

// resultsFile is results.json. NProc and GOMAXPROCS stamp the host: a
// number measured with 2 CPUs is not comparable with one from 1.
type resultsFile struct {
	Schema     string           `json:"schema"`
	Go         string           `json:"go"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
}

// workloadResult is one workload's set.
type workloadResult struct {
	Name      string                  `json:"name"`
	Why       string                  `json:"why"`
	Seed      int64                   `json:"seed"`
	Passes    int                     `json:"passes"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	ErrorRate float64                 `json:"error_rate"`
	Failures  []string                `json:"failures,omitempty"`
	Metrics   map[string]metricResult `json:"metrics"`
	Layers    map[string]layerValue   `json:"layers,omitempty"`
	Artifacts map[string]string       `json:"artifacts,omitempty"`
	// Calibration holds the calibrate times taken between passes;
	// HostScale is referenceCalS over their median.
	Calibration summary `json:"calibration"`
	HostScale   float64 `json:"host_scale"`
}

// metricResult is an end-to-end metric's distribution over the passes,
// in reference seconds for timing metrics; Raw is the same in host
// units.
type metricResult struct {
	metricSpec
	summary
	Raw summary `json:"raw"`
}

// hostScaled rescales a timing metric's host values to reference
// seconds: times are multiplied by scale and rates divided by it.
func hostScaled(m metricSpec, raw summary, scale float64) summary {
	switch m.Unit {
	case "s":
		return raw.scaled(scale)
	case "1/s":
		return raw.scaled(1 / scale)
	}
	return raw
}

// layerValue is one per-layer metric.
type layerValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// passThreads is the GOMAXPROCS of every pass: no pass uses more
// threads than the host has or than the widest workload needs.
func passThreads() int { return min(runtime.NumCPU(), max(sweepWorkers, faultShards)) }

// childTimeout stops a pass that hangs; the pass then counts as failed.
const childTimeout = 150 * time.Second

// runWorkload runs one set of w: cold passes one at a time, a serial
// replay when w is sharded, and with cfg.trace a traced pass and the
// microbenchmarks.
func runWorkload(w benchWorkload, cfg runConfig) (workloadResult, error) {
	r := workloadResult{Name: w.name, Why: w.why, Seed: cfg.seed, Metrics: map[string]metricResult{}}
	specs := w.specs(cfg.seed)
	var pinned []string
	if cfg.seed == defaultSeed {
		var err error
		if pinned, err = pinnedDigests(w.name); err != nil {
			return r, err
		}
	}
	minPasses := cfg.passes
	if minPasses == 0 {
		minPasses = w.passes
		if cfg.seconds > 0 {
			minPasses = 3
		}
	}
	args := []string{"pass", "-workload", w.name, "-seed", strconv.FormatInt(cfg.seed, 10)}

	var passes []passResult
	var cals []float64
	start := time.Now()
	for len(passes) < minPasses || time.Since(start).Seconds() < cfg.seconds {
		passes = append(passes, spawnPass(args, len(specs)))
		cals = append(cals, calibrate())
	}
	all := append([]passResult(nil), passes...)
	if slices.ContainsFunc(specs, func(s experiments.RunSpec) bool { return s.Shards >= 2 }) {
		// Once per set: the parallel shards must match their serial
		// replay.
		all = append(all, spawnPass(append(args, "-serial"), len(specs)))
	}
	var traced *passResult
	if cfg.trace {
		t := spawnPass(append(args, "-traced", "-out", cfg.out), len(specs))
		traced = &t
		all = append(all, t)
	}

	digests := make([][]string, len(all))
	for i, p := range all {
		digests[i] = p.Digests
		r.Failures = append(r.Failures, p.Failures...)
	}
	for p, fails := range digestFailures(digests, pinned) {
		for i, f := range fails {
			r.Attempted++
			if f {
				r.Failed++
				if all[p].Digests[i] != "" {
					r.Failures = append(r.Failures, fmt.Sprintf("pass %d run %d: digest %s differs", p, i, all[p].Digests[i]))
				}
			}
		}
	}
	r.ErrorRate = float64(r.Failed) / float64(r.Attempted)
	r.Passes = len(passes)

	samples := map[string][]float64{}
	for _, p := range passes {
		if p.Counters == nil {
			continue // the pass did not run; its runs are counted as failed
		}
		samples["wall_s"] = append(samples["wall_s"], p.WallS)
		samples["events_per_s"] = append(samples["events_per_s"], float64(p.Events)/p.RunS)
		samples["setup_s"] = append(samples["setup_s"], p.SetupS)
		samples["peak_rss_mib"] = append(samples["peak_rss_mib"], p.PeakRSS)
	}
	if len(samples["wall_s"]) == 0 {
		return r, fmt.Errorf("no pass ran: %v", r.Failures)
	}
	r.Calibration = summarize(cals)
	r.HostScale = referenceCalS / r.Calibration.Median
	for _, m := range endToEnd {
		raw := summarize(samples[m.Name])
		r.Metrics[m.Name] = metricResult{m, hostScaled(m, raw, r.HostScale), raw}
	}
	if traced != nil {
		layers, artifacts, err := layerMetrics(w, passes, *traced, r.Metrics["wall_s"].Raw.Median, cfg)
		if err != nil {
			return r, err
		}
		r.Layers, r.Artifacts = layers, artifacts
	}
	return r, nil
}

// layerMetrics assembles the per-layer metrics: medians of the untraced
// passes' counters, the traced pass's trace counts and profile shares,
// and the microbenchmarks.
func layerMetrics(w benchWorkload, passes []passResult, traced passResult, untracedWall float64, cfg runConfig) (map[string]layerValue, map[string]string, error) {
	values := map[string]float64{}
	for _, m := range perLayer {
		var xs []float64
		for _, p := range passes {
			if v, ok := p.Counters[m.Name]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			sort.Float64s(xs)
			values[m.Name] = median(xs)
		}
	}
	for name, v := range traced.Counters {
		if strings.HasPrefix(name, "trace.") {
			values[name] = v
		}
	}
	values["trace.overhead_pct"] = 100 * (traced.WallS/untracedWall - 1)

	profile := filepath.Join(cfg.out, w.name+".cpu.pprof")
	shares, err := selfShares(profile)
	if err != nil {
		return nil, nil, err
	}
	for _, l := range layers {
		values[l+".self_share"] = shares[l]
	}

	for k, v := range cfg.micro {
		values[k] = v
	}

	result := map[string]layerValue{}
	for _, m := range perLayer {
		v, ok := values[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("%s: per-layer metric %s was not measured", w.name, m.Name)
		}
		result[m.Name] = layerValue{v, m.Unit}
	}
	artifacts := map[string]string{"cpu_profile": profile, "spans": filepath.Join(cfg.out, w.name+".spans.json")}
	return result, artifacts, nil
}

// spawnPass runs one pass in a fresh process and decodes its report. A
// pass that cannot run reports every one of its runs as failed.
func spawnPass(args []string, runs int) passResult {
	var p passResult
	if err := spawn(args, &p); err != nil {
		return passResult{Digests: make([]string, runs), Failures: []string{err.Error()}}
	}
	if len(p.Digests) != runs {
		return passResult{Digests: make([]string, runs), Failures: []string{fmt.Sprintf("pass reported %d runs, want %d", len(p.Digests), runs)}}
	}
	return p
}

// spawnMicro runs the microbenchmarks in a fresh process.
func spawnMicro() (map[string]float64, error) {
	var m map[string]float64
	err := spawn([]string{"micro"}, &m)
	return m, err
}

// spawn re-executes this binary with args, waits for it, and decodes the
// last line of its standard output into v.
func spawn(args []string, v any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(passThreads()))
	cmd.Stderr = os.Stderr
	// The child dies with this process, so no pass outlives the set.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%v: %w", args, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], v); err != nil {
		return fmt.Errorf("%v: decoding report: %w", args, err)
	}
	return nil
}
