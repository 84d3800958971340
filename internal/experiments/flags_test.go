package experiments

import (
	"flag"
	"io"
	"testing"
)

// TestRunFlagsApply: only the flags given on the command line reach the
// specs, -scenario implies sampling every 250 units, and every spec and
// the worker count are validated.
func TestRunFlagsApply(t *testing.T) {
	apply := func(args ...string) ([]RunSpec, error) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		f := RegisterRunFlags(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		specs := []RunSpec{{Topo: Grid(4), Workload: Fib(8), Strategy: CWN(3, 1), SampleInterval: 40, RetryLimit: 2}}
		return specs, f.Apply(specs)
	}

	specs, err := apply()
	if err != nil || specs[0].SampleInterval != 40 || specs[0].RetryLimit != 2 || specs[0].Scenario != "" {
		t.Errorf("no flags: spec %+v, err %v; want it untouched", specs[0], err)
	}
	specs, err = apply("-sample", "0", "-retry-limit", "0", "-retry-backoff", "7")
	if err != nil || specs[0].SampleInterval != 0 || specs[0].RetryLimit != 0 || specs[0].RetryBackoff != 7 {
		t.Errorf("given flags: spec %+v, err %v; want every given value applied", specs[0], err)
	}
	for _, args := range [][]string{{"-scenario", "fail:pes=1@t=100"}, {"-scenario", "fail:pes=1@t=100", "-sample", "0"}} {
		specs, err = apply(args...)
		if err != nil || specs[0].Scenario != "fail:pes=1@t=100" || specs[0].SampleInterval != 250 {
			t.Errorf("%v: spec %+v, err %v; want the scenario sampled every 250", args, specs[0], err)
		}
	}
	if specs, err = apply("-scenario", "fail:pes=1@t=100", "-sample", "60"); err != nil || specs[0].SampleInterval != 60 {
		t.Errorf("-sample 60 under -scenario: spec %+v, err %v", specs[0], err)
	}
	for _, args := range [][]string{{"-retry-limit", "-1"}, {"-sample", "-5"}, {"-scenario", "garbage"}, {"-workers", "-1"}} {
		if _, err := apply(args...); err == nil {
			t.Errorf("%v: Apply accepted an invalid run", args)
		}
	}
}
