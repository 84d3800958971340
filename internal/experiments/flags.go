package experiments

import (
	"flag"
	"fmt"
)

// RunFlags is the run-option flag set the batch commands (cmd/sweep,
// cmd/serve) share: the scripted environment, its sampling, the crash
// retry policy, and where the batch runs and writes. Register it before
// flag parsing; Apply then turns the flags into run options.
type RunFlags struct {
	Scenario     string
	Sample       int64
	RetryLimit   int
	RetryBackoff int64
	TraceOut     string
	Workers      int
	CSV          string

	fs *flag.FlagSet
}

// scenarioSample is the sampling interval -scenario implies when
// -sample is unset or 0: a few hundred windows over the default horizon,
// enough for the recovery tables.
const scenarioSample = 250

// RegisterRunFlags defines the shared run flags on fs.
func RegisterRunFlags(fs *flag.FlagSet) *RunFlags {
	f := &RunFlags{fs: fs}
	fs.StringVar(&f.Scenario, "scenario", "", `scripted environment applied to every run, e.g. "fail:pes=25%@t=5000,recover@t=10000"`)
	fs.Int64Var(&f.Sample, "sample", 0, "utilization/imbalance sampling interval (0 = 250 when -scenario is set, else off)")
	fs.IntVar(&f.RetryLimit, "retry-limit", 0, "crash retries per job before abandoning it (0 = unbounded; needs a crash -scenario)")
	fs.Int64Var(&f.RetryBackoff, "retry-backoff", 0, "virtual-time backoff per retry attempt (attempt x backoff)")
	fs.StringVar(&f.TraceOut, "trace-out", "", "write a Perfetto span export (Chrome trace-event JSON) of the first configuration's run")
	fs.IntVar(&f.Workers, "workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	fs.StringVar(&f.CSV, "csv", "", "also write the result table as CSV")
	return f
}

// Apply writes the run flags given on the command line into every spec
// — a flag left unset keeps the spec's own value — and validates each
// spec and the batch flags, so a bad flag fails before a command prints
// anything. Recovery metrics need the sampling timeline, so -scenario
// without a positive -sample samples every 250 time units.
func (f *RunFlags) Apply(specs []RunSpec) error {
	if f.Workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", f.Workers)
	}
	given := map[string]bool{}
	f.fs.Visit(func(fl *flag.Flag) { given[fl.Name] = true })
	if f.Scenario != "" && f.Sample == 0 {
		f.Sample, given["sample"] = scenarioSample, true
	}
	for i := range specs {
		s := &specs[i]
		if f.Scenario != "" {
			s.Scenario = f.Scenario
		}
		if given["sample"] {
			s.SampleInterval = f.Sample
		}
		if given["retry-limit"] {
			s.RetryLimit = f.RetryLimit
		}
		if given["retry-backoff"] {
			s.RetryBackoff = f.RetryBackoff
		}
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}
