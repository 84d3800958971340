package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout)) }

const usage = `usage:
  perfbench run [-workload W] [-seed S] [-passes N] [-seconds T] [-trace 0|1] [-out DIR]
  perfbench compare A.json B.json`

// cli dispatches a subcommand and returns the exit code. "pass" and
// "micro" are the child processes "run" starts.
func cli(args []string, stdout io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, usage)
		return 2
	}
	var err error
	code := 0
	switch args[0] {
	case "run":
		code, err = cmdRun(args[1:], stdout)
	case "compare":
		code, err = cmdCompare(args[1:], stdout)
	case "pass":
		err = cmdPass(args[1:], stdout)
	case "micro":
		var m map[string]float64
		if m, err = microbenchmarks(); err == nil {
			err = json.NewEncoder(stdout).Encode(m)
		}
	default:
		fmt.Fprintln(os.Stderr, usage)
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return max(code, 1)
	}
	return code
}

// report is the last line "run" prints: one JSON object.
type report struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]layerValue `json:"metrics"`
}

func cmdRun(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs all")
	seed := fs.Int64("seed", defaultSeed, "seed of every run's inputs")
	passes := fs.Int("passes", 0, "minimum cold passes per workload; 0 = the workload's suggested count, or 3 with -seconds")
	seconds := fs.Float64("seconds", 0, "keep adding passes until this many seconds have passed")
	trace := fs.Int("trace", 1, "1 adds a traced pass and the microbenchmarks and reports per-layer metrics; 0 reports end-to-end metrics only")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for results.json and the traced-pass artifacts")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *passes < 0 || *seconds < 0 {
		return 2, fmt.Errorf("bad arguments\n%s", usage)
	}
	selected := workloads
	if *name != "" {
		w, err := lookupWorkload(*name)
		if err != nil {
			return 2, err
		}
		selected = []benchWorkload{w}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return 1, err
	}
	cfg := runConfig{seed: *seed, passes: *passes, seconds: *seconds, trace: *trace == 1, out: *out}
	if cfg.trace {
		var err error
		if cfg.micro, err = spawnMicro(); err != nil {
			return 1, fmt.Errorf("microbenchmarks: %w", err)
		}
	}
	file := resultsFile{
		Schema:     "cwnsim-perfbench/v1",
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: passThreads(),
	}
	rep := report{Metrics: map[string]layerValue{}}
	for _, w := range selected {
		fmt.Fprintf(os.Stderr, "perfbench: %s, seed %d\n", w.name, cfg.seed)
		r, err := runWorkload(w, cfg)
		if err != nil {
			return 1, fmt.Errorf("%s: %w", w.name, err)
		}
		file.Workloads = append(file.Workloads, r)
		printWorkload(stdout, r)
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		key := func(m string) string {
			if len(selected) > 1 {
				return w.name + "/" + m
			}
			return m
		}
		if cfg.trace {
			for _, m := range perLayer {
				rep.Metrics[key(m.Name)] = r.Layers[m.Name]
			}
		} else {
			for _, m := range endToEnd {
				rep.Metrics[key(m.Name)] = layerValue{r.Metrics[m.Name].Median, m.Unit}
			}
		}
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return 1, err
	}
	if err := os.WriteFile(filepath.Join(*out, "results.json"), append(data, '\n'), 0o644); err != nil {
		return 1, err
	}
	rep.Correct = rep.Failed == 0
	line, err := json.Marshal(rep)
	if err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1, nil
	}
	return 0, nil
}

// printWorkload prints every metric of a set as
// "workload metric value unit", the value being the median over passes.
func printWorkload(w io.Writer, r workloadResult) {
	for _, m := range endToEnd {
		s := r.Metrics[m.Name]
		fmt.Fprintf(w, "%s %s %.6g %s (median; q1 %.6g, q3 %.6g, n=%d)\n", r.Name, m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
	}
	fmt.Fprintf(w, "%s host_scale %.4g ratio (calibration median %.4g s against %g s; host wall_s %.6g s)\n",
		r.Name, r.HostScale, r.Calibration.Median, referenceCalS, r.Metrics["wall_s"].Raw.Median)
	fmt.Fprintf(w, "%s error_rate %g ratio (%d failed of %d runs)\n", r.Name, r.ErrorRate, r.Failed, r.Attempted)
	for _, m := range perLayer {
		if v, ok := r.Layers[m.Name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", r.Name, m.Name, v.Value, v.Unit)
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", r.Name, f)
	}
}

func cmdCompare(args []string, stdout io.Writer) (int, error) {
	if len(args) != 2 {
		return 2, fmt.Errorf("compare takes two results.json files\n%s", usage)
	}
	a, err := readResults(args[0])
	if err != nil {
		return 1, err
	}
	b, err := readResults(args[1])
	if err != nil {
		return 1, err
	}
	if compareResults(a, b, stdout) > 0 {
		return 1, nil
	}
	return 0, nil
}

func cmdPass(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("pass", flag.ContinueOnError)
	name := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", defaultSeed, "seed")
	traced := fs.Bool("traced", false, "profile, count trace events and record spans")
	serial := fs.Bool("serial", false, "replay sharded runs on one goroutine")
	out := fs.String("out", "", "directory for the traced pass's artifacts")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	res, err := runPass(w, passOptions{seed: *seed, traced: *traced, serial: *serial, out: *out})
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}
