package experiments

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"

	"cwnsim/internal/machine"
)

// maxPEs is the largest machine a topology spec may describe: the
// implicit hypercube's ceiling (dimension 30), which also keeps every
// PE and channel count inside the machine's int32 indexes.
const maxPEs = 1 << 30

// Validate reports whether rs describes a run the simulator can
// execute. It is the one rule set behind every entry point: the CLI
// parsers apply its component rules, and LoadSpecs, ExecuteErr and the
// commands call it whole. It builds no tree and expands no scenario,
// and builds the (cached) topology only for a scenario that names a
// link, so a spec of any size is checked without building it.
//
// The rules: each component's kind is known and its arguments lie in
// its constructor's range; a machine holds at most 2^30 PEs; the load
// metric is empty, "queue" or "queue+pending"; no field but the seed is
// negative; the scenario parses and fits the machine; a SequentialOnly
// strategy runs on one shard; and the machine configuration passes
// machine.Config.Validate and ValidateLinks. The error names the run.
func (rs RunSpec) Validate() error {
	if err := rs.check(); err != nil {
		return fmt.Errorf("%s: %w", rs.ref(), err)
	}
	return nil
}

func (rs RunSpec) check() error {
	for _, err := range []error{rs.Topo.validate(), rs.Workload.validate(), rs.Strategy.validate(), rs.Arrival.validate()} {
		if err != nil {
			return err
		}
	}
	switch rs.LoadMetric {
	case "", "queue", "queue+pending":
	default:
		return fmt.Errorf("loadMetric %q must be queue or queue+pending", rs.LoadMetric)
	}
	// Config replaces a non-positive hop time, horizon or sampling
	// interval with its default or "off", so a negative one is refused
	// here; machine.Config.Validate refuses the other negative fields.
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"goalHopTime", rs.GoalHopTime},
		{"respHopTime", rs.RespHopTime},
		{"maxTime", rs.MaxTime},
		{"sampleInterval", rs.SampleInterval},
	} {
		if f.v < 0 {
			return fmt.Errorf("%s must be non-negative, got %d", f.name, f.v)
		}
	}
	cfg, err := rs.config()
	if err != nil {
		return err
	}
	pes := rs.Topo.PEs()
	if err := cfg.Validate(pes); err != nil {
		return err
	}
	if err := cfg.ValidateLinks(rs.Topo.Build); err != nil {
		return err
	}
	if min(max(rs.Shards, 1), pes) > 1 {
		if so, ok := rs.Strategy.Build().(machine.SequentialOnly); ok {
			return fmt.Errorf("strategy %s cannot run sharded: %s", rs.Strategy.Kind, so.SequentialOnly())
		}
	}
	return nil
}

// ref identifies the run in error text without building anything, as
// Name would build the strategy.
func (rs RunSpec) ref() string {
	if rs.Label != "" {
		return rs.Label
	}
	return fmt.Sprintf("%s|%s|%s", rs.Strategy.Kind, rs.Topo.Label(), rs.Workload.Label())
}

// validate reports a topology its constructor would refuse: every
// dimension is positive, a machine holds at most 2^30 PEs, a DLM span
// is at least 2 and divides both sides, a hypercube dimension lies in
// [0,30], a ring or chordal ring has at least 3 PEs with a chord in
// [2,N/2], a star or bus at least 2, and a complete graph at least 1.
func (ts TopoSpec) validate() error {
	// fits reports whether dims are positive with a product of at most
	// maxPEs, without overflowing.
	fits := func(dims ...int) bool {
		pes := 1
		for _, d := range dims {
			if d < 1 || d > maxPEs/pes {
				return false
			}
			pes *= d
		}
		return true
	}
	switch ts.Kind {
	case "grid", "torus", "dlm":
		if !fits(ts.Rows, ts.Cols) {
			return fmt.Errorf("%s dimensions %dx%d must be positive with at most %d PEs in all", ts.Kind, ts.Rows, ts.Cols, maxPEs)
		}
		if ts.Kind == "dlm" && (ts.Span < 2 || ts.Rows%ts.Span != 0 || ts.Cols%ts.Span != 0) {
			return fmt.Errorf("dlm span %d must be at least 2 and divide both sides of %dx%d", ts.Span, ts.Rows, ts.Cols)
		}
	case "torus3d":
		if !fits(ts.Rows, ts.Cols, ts.Z) {
			return fmt.Errorf("torus3d dimensions %dx%dx%d must be positive with at most %d PEs in all", ts.Rows, ts.Cols, ts.Z, maxPEs)
		}
	case "hypercube":
		if ts.Dim < 0 || ts.Dim > 30 {
			return fmt.Errorf("hypercube dimension %d out of range [0,30]", ts.Dim)
		}
	case "chordal":
		if ts.N < 3 || ts.N > maxPEs || ts.Chord < 2 || ts.Chord > ts.N/2 {
			return fmt.Errorf("chordal needs 3 <= N <= %d and 2 <= CHORD <= N/2, got N=%d CHORD=%d", maxPEs, ts.N, ts.Chord)
		}
	case "ring", "complete", "star", "bus":
		least := 2 // star, bus
		switch ts.Kind {
		case "ring":
			least = 3
		case "complete":
			least = 1
		}
		if ts.N < least || ts.N > maxPEs {
			return fmt.Errorf("%s needs %d <= N <= %d, got %d", ts.Kind, least, maxPEs, ts.N)
		}
	case "single":
	default:
		return unknownKind("topology", ts.Kind, topoBuilders)
	}
	return nil
}

// validate reports a tree its constructor would refuse: fib's M lies
// in [0,40], dc's range M..N is non-empty and spans at most 2^22, a
// binary depth lies in [0,24], skew and chain sizes in [1,2^20], a
// random or imbalanced tree has at least one goal, and an imbalanced
// tree's left fraction lies strictly between 0 and 1.
func (ws WorkloadSpec) validate() error {
	inRange := func(v, lo, hi int) error {
		if v < lo || v > hi {
			return fmt.Errorf("%s argument %d out of range [%d,%d]", ws.Kind, v, lo, hi)
		}
		return nil
	}
	switch ws.Kind {
	case "fib":
		return inRange(ws.M, 0, 40)
	case "dc":
		// The unsigned difference is exact once M <= N.
		if ws.M > ws.N || uint(ws.N)-uint(ws.M) > 1<<22 {
			return fmt.Errorf("dc range %d..%d must be non-empty and span at most %d", ws.M, ws.N, 1<<22)
		}
	case "binary":
		return inRange(ws.N, 0, 24)
	case "skew", "chain":
		return inRange(ws.N, 1, 1<<20)
	case "random":
		return inRange(ws.N, 1, math.MaxInt)
	case "imbal":
		// !(f > 0 && f < 1) also rejects NaN.
		if ws.N < 1 || !(ws.Frac > 0 && ws.Frac < 1) {
			return fmt.Errorf("imbal needs at least 1 goal and a fraction in (0,1), got %d and %g", ws.N, ws.Frac)
		}
	default:
		return unknownKind("workload", ws.Kind, workloadBuilders)
	}
	return nil
}

// validate reports a strategy its constructor would refuse: a radius is
// at least 1 and a horizon lies in [0,radius], GM's watermarks satisfy
// 0 <= low <= high, every interval is positive, an ACWN saturation
// threshold is at least 0, a random walk takes at least 1 step, a
// work-stealing threshold is at least 1, and only cwn, gm and worksteal
// have a failure-aware variant.
func (ss StrategySpec) validate() error {
	switch ss.Kind {
	case "cwn", "acwn":
		if ss.Radius < 1 || ss.Horizon < 0 || ss.Horizon > ss.Radius {
			return fmt.Errorf("%s needs radius >= 1 and 0 <= horizon <= radius, got radius=%d horizon=%d", ss.Kind, ss.Radius, ss.Horizon)
		}
		if ss.Kind == "acwn" && (ss.Sat < 0 || ss.Interval <= 0) {
			return fmt.Errorf("acwn needs sat >= 0 and interval > 0, got sat=%d interval=%d", ss.Sat, ss.Interval)
		}
	case "gm":
		if ss.Low < 0 || ss.High < ss.Low || ss.Interval <= 0 {
			return fmt.Errorf("gm needs 0 <= low <= high and interval > 0, got low=%d high=%d interval=%d", ss.Low, ss.High, ss.Interval)
		}
	case "randomwalk":
		if ss.Steps < 1 {
			return fmt.Errorf("randomwalk needs steps >= 1, got %d", ss.Steps)
		}
	case "worksteal":
		if ss.Interval <= 0 || ss.Threshold < 1 {
			return fmt.Errorf("worksteal needs interval > 0 and threshold >= 1, got interval=%d threshold=%d", ss.Interval, ss.Threshold)
		}
	case "diffusion":
		if ss.Interval <= 0 {
			return fmt.Errorf("diffusion needs interval > 0, got %d", ss.Interval)
		}
	case "local", "roundrobin", "ideal":
	default:
		return unknownKind("strategy", ss.Kind, strategyBuilders)
	}
	switch ss.Kind {
	case "cwn", "gm", "worksteal":
	default:
		if ss.FailureAware {
			return fmt.Errorf("strategy %q has no failure-aware variant", ss.Kind)
		}
	}
	return nil
}

// validate reports an arrival process its constructor would refuse:
// every gap is positive (a Poisson mean finite too), and every job,
// burst-size and burst count at least 1.
func (as ArrivalSpec) validate() error {
	switch as.Kind {
	case "", "single":
	case "interval":
		if as.Gap <= 0 || as.Jobs < 1 {
			return fmt.Errorf("interval needs gap > 0 and jobs >= 1, got gap=%d jobs=%d", as.Gap, as.Jobs)
		}
	case "poisson":
		// !(mean > 0) also rejects NaN, which `mean <= 0` would let through.
		if !(as.Mean > 0) || math.IsInf(as.Mean, 0) || as.Jobs < 1 {
			return fmt.Errorf("poisson needs a finite mean > 0 and jobs >= 1, got mean=%g jobs=%d", as.Mean, as.Jobs)
		}
	case "burst":
		if as.Burst < 1 || as.Gap <= 0 || as.Bursts < 1 {
			return fmt.Errorf("burst needs burst >= 1, gap > 0 and bursts >= 1, got burst=%d gap=%d bursts=%d", as.Burst, as.Gap, as.Bursts)
		}
	default:
		return unknownKind("arrival", as.Kind, arrivalBuilders)
	}
	return nil
}

// checked returns spec when it passes its own validation, else the zero
// spec and the error: the last step of every CLI parser.
func checked[S interface{ validate() error }](spec S) (S, error) {
	if err := spec.validate(); err != nil {
		var zero S
		return zero, err
	}
	return spec, nil
}

// buildKind returns the builder for kind, and panics listing the known
// kinds when there is none: Build on an unvalidated spec is a bug.
func buildKind[F any](what string, builders map[string]F, kind string) F {
	b, ok := builders[kind]
	if !ok {
		panic(unknownKind(what, kind, builders))
	}
	return b
}

// unknownKind is the error for a kind that builders does not hold.
func unknownKind[F any](what, kind string, builders map[string]F) error {
	return fmt.Errorf("unknown %s kind %q (known: %s)", what, kind, strings.Join(slices.Sorted(maps.Keys(builders)), ", "))
}
