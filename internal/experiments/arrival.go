package experiments

import (
	"fmt"

	"cwnsim/internal/machine"
	"cwnsim/internal/sim"
	"cwnsim/internal/workload"
)

// ArrivalSpec names an arrival process: how root goals ("jobs") enter
// the machine over virtual time. The zero value (or Kind "single") is
// the paper's closed system — one job at time zero — so existing specs
// keep their meaning. Stream kinds turn a run into an open system whose
// latency (sojourn time) and throughput are measured per job.
type ArrivalSpec struct {
	Kind   string  `json:"kind,omitempty"`   // ""/single|interval|poisson|burst
	Jobs   int     `json:"jobs,omitempty"`   // stream length in jobs
	Gap    int64   `json:"gap,omitempty"`    // fixed inter-arrival gap (interval, burst)
	Mean   float64 `json:"mean,omitempty"`   // mean inter-arrival gap (poisson)
	Burst  int     `json:"burst,omitempty"`  // jobs per burst (burst)
	Bursts int     `json:"bursts,omitempty"` // number of bursts (burst)
}

// SingleArrival returns the paper's one-shot arrival spec.
func SingleArrival() ArrivalSpec { return ArrivalSpec{Kind: "single"} }

// IntervalArrivals returns a fixed-gap stream of jobs arrivals.
func IntervalArrivals(gap int64, jobs int) ArrivalSpec {
	return ArrivalSpec{Kind: "interval", Gap: gap, Jobs: jobs}
}

// PoissonArrivals returns a Poisson stream: jobs arrivals with
// exponential inter-arrival gaps of the given mean (offered rate
// 1/mean jobs per unit time).
func PoissonArrivals(mean float64, jobs int) ArrivalSpec {
	return ArrivalSpec{Kind: "poisson", Mean: mean, Jobs: jobs}
}

// BurstArrivals returns a bursty stream: bursts rounds of burst
// simultaneous jobs, gap units apart.
func BurstArrivals(burst int, gap int64, bursts int) ArrivalSpec {
	return ArrivalSpec{Kind: "burst", Burst: burst, Gap: gap, Bursts: bursts}
}

// IsSingle reports whether the spec is the closed-system one-shot run
// (the zero value included).
func (as ArrivalSpec) IsSingle() bool { return as.Kind == "" || as.Kind == "single" }

// Build constructs a fresh JobSource emitting copies of tree. The spec
// must be valid (RunSpec.Validate).
func (as ArrivalSpec) Build(tree *workload.Tree) machine.JobSource {
	kind := as.Kind
	if kind == "" {
		kind = "single"
	}
	return buildKind("arrival", arrivalBuilders, kind)(as, tree)
}

var arrivalBuilders = map[string]func(ArrivalSpec, *workload.Tree) machine.JobSource{
	"single": func(_ ArrivalSpec, tree *workload.Tree) machine.JobSource { return machine.NewSingleJob(tree) },
	"interval": func(as ArrivalSpec, tree *workload.Tree) machine.JobSource {
		return machine.NewFixedInterval(tree, sim.Time(as.Gap), as.Jobs)
	},
	"poisson": func(as ArrivalSpec, tree *workload.Tree) machine.JobSource {
		return machine.NewPoisson(tree, as.Mean, as.Jobs)
	},
	"burst": func(as ArrivalSpec, tree *workload.Tree) machine.JobSource {
		return machine.NewBurst(tree, as.Burst, sim.Time(as.Gap), as.Bursts)
	},
}

// Label is a short stable identifier, e.g. "poisson(g=50,n=200)";
// single-job specs label as "single" so legacy run names are unchanged
// when the label is elided.
func (as ArrivalSpec) Label() string {
	switch {
	case as.IsSingle():
		return "single"
	case as.Kind == "poisson":
		return fmt.Sprintf("poisson(g=%g,n=%d)", as.Mean, as.Jobs)
	case as.Kind == "interval":
		return fmt.Sprintf("interval(g=%d,n=%d)", as.Gap, as.Jobs)
	case as.Kind == "burst":
		return fmt.Sprintf("burst(%dx%d,g=%d)", as.Bursts, as.Burst, as.Gap)
	default:
		return as.Kind
	}
}
