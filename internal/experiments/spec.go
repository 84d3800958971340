// Package experiments turns declarative run specifications into
// simulation results and regenerates every table and figure of the
// paper: the parameter-optimization runs behind Table 1, the 240-run
// comparison behind Table 2, the hop-distance distribution of Table 3,
// the utilization-versus-problem-size curves of Plots 1-10, the
// utilization-versus-time traces of Plots 11-16, and the appendix
// hypercube studies. Beyond the paper, RunSpec carries an ArrivalSpec,
// so the same declarative layer drives open-system runs: job streams
// with latency and throughput results (cmd/serve).
//
// Specs name their components by kind and are dispatched through
// registries — see RegisterTopology, RegisterWorkload, RegisterStrategy
// and RegisterArrival in registry.go for how to plug in new kinds.
package experiments

import (
	"fmt"
	"sync"

	"cwnsim/internal/core"
	"cwnsim/internal/machine"
	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// TopoSpec names an interconnection network. Specs are plain data so
// experiment definitions can be serialized and reported.
//
// Build gives grid, torus and hypercube their computed-neighbor
// (implicit) form: adjacency, distances and next hops are index
// arithmetic in O(1) memory, bit-for-bit the numbering and routing of
// the materialized constructors. The other kinds materialize their
// channel lists and route from an all-pairs table built on first use.
type TopoSpec struct {
	Kind  string `json:"kind"` // grid|torus|torus3d|dlm|hypercube|ring|chordal|complete|star|bus|single
	Rows  int    `json:"rows,omitempty"`
	Cols  int    `json:"cols,omitempty"`
	Span  int    `json:"span,omitempty"`  // dlm bus span
	Dim   int    `json:"dim,omitempty"`   // hypercube dimension
	N     int    `json:"n,omitempty"`     // ring/chordal/complete/star/bus size
	Z     int    `json:"z,omitempty"`     // torus3d third dimension
	Chord int    `json:"chord,omitempty"` // chordal ring stride
}

// Grid returns a non-wraparound side×side grid spec.
func Grid(side int) TopoSpec { return TopoSpec{Kind: "grid", Rows: side, Cols: side} }

// Torus returns a wraparound side×side grid spec.
func Torus(side int) TopoSpec { return TopoSpec{Kind: "torus", Rows: side, Cols: side} }

// DLM returns a side×side double-lattice-mesh spec with the given span.
func DLM(side, span int) TopoSpec {
	return TopoSpec{Kind: "dlm", Rows: side, Cols: side, Span: span}
}

// Hypercube returns a hypercube spec of the given dimension.
func Hypercube(dim int) TopoSpec { return TopoSpec{Kind: "hypercube", Dim: dim} }

// Build constructs (and caches) the topology via the topology registry.
func (ts TopoSpec) Build() *topology.Topology {
	topoCacheMu.Lock()
	defer topoCacheMu.Unlock()
	key := ts.Label()
	if t, ok := topoCache[key]; ok {
		return t
	}
	t := topoRegistry.build(ts.Kind, ts)
	topoCache[key] = t
	return t
}

func init() {
	RegisterTopology("grid", func(ts TopoSpec) *topology.Topology { return topology.NewGridImplicit(ts.Rows, ts.Cols) })
	RegisterTopology("torus", func(ts TopoSpec) *topology.Topology { return topology.NewTorusImplicit(ts.Rows, ts.Cols) })
	RegisterTopology("torus3d", func(ts TopoSpec) *topology.Topology { return topology.NewTorus3D(ts.Rows, ts.Cols, ts.Z) })
	RegisterTopology("dlm", func(ts TopoSpec) *topology.Topology { return topology.NewDLM(ts.Rows, ts.Cols, ts.Span) })
	RegisterTopology("hypercube", func(ts TopoSpec) *topology.Topology { return topology.NewHypercubeImplicit(ts.Dim) })
	RegisterTopology("ring", func(ts TopoSpec) *topology.Topology { return topology.NewRing(ts.N) })
	RegisterTopology("chordal", func(ts TopoSpec) *topology.Topology { return topology.NewChordalRing(ts.N, ts.Chord) })
	RegisterTopology("complete", func(ts TopoSpec) *topology.Topology { return topology.NewComplete(ts.N) })
	RegisterTopology("star", func(ts TopoSpec) *topology.Topology { return topology.NewStar(ts.N) })
	RegisterTopology("bus", func(ts TopoSpec) *topology.Topology { return topology.NewBusGlobal(ts.N) })
	RegisterTopology("single", func(TopoSpec) *topology.Topology { return topology.NewSingle() })
}

// Label is a short stable identifier, e.g. "grid-20x20" or "dlm-10x10-s5".
func (ts TopoSpec) Label() string {
	switch ts.Kind {
	case "grid", "torus":
		return fmt.Sprintf("%s-%dx%d", ts.Kind, ts.Rows, ts.Cols)
	case "torus3d":
		return fmt.Sprintf("torus3d-%dx%dx%d", ts.Rows, ts.Cols, ts.Z)
	case "dlm":
		return fmt.Sprintf("dlm-%dx%d-s%d", ts.Rows, ts.Cols, ts.Span)
	case "hypercube":
		return fmt.Sprintf("hypercube-d%d", ts.Dim)
	case "chordal":
		return fmt.Sprintf("chordal-%d-c%d", ts.N, ts.Chord)
	case "single":
		return "single"
	default:
		return fmt.Sprintf("%s-%d", ts.Kind, ts.N)
	}
}

// PEs returns the machine size without building the topology.
func (ts TopoSpec) PEs() int {
	switch ts.Kind {
	case "grid", "torus", "dlm":
		return ts.Rows * ts.Cols
	case "torus3d":
		return ts.Rows * ts.Cols * ts.Z
	case "hypercube":
		return 1 << uint(ts.Dim)
	case "single":
		return 1
	default:
		return ts.N
	}
}

var (
	topoCacheMu sync.Mutex
	topoCache   = map[string]*topology.Topology{}
)

// WorkloadSpec names a computation tree.
type WorkloadSpec struct {
	Kind string  `json:"kind"` // fib|dc|binary|skew|chain|random|imbal
	M    int     `json:"m,omitempty"`
	N    int     `json:"n,omitempty"`
	Seed int64   `json:"seed,omitempty"`
	Frac float64 `json:"frac,omitempty"` // imbal left fraction
}

// Fib returns the fib(m) workload spec.
func Fib(m int) WorkloadSpec { return WorkloadSpec{Kind: "fib", M: m} }

// DC returns the dc(1,x) workload spec.
func DC(x int) WorkloadSpec { return WorkloadSpec{Kind: "dc", M: 1, N: x} }

// Build constructs (and caches) the tree via the workload registry.
func (ws WorkloadSpec) Build() *workload.Tree {
	treeCacheMu.Lock()
	defer treeCacheMu.Unlock()
	key := ws.Label()
	if t, ok := treeCache[key]; ok {
		return t
	}
	t := workloadRegistry.build(ws.Kind, ws)
	treeCache[key] = t
	return t
}

func init() {
	RegisterWorkload("fib", func(ws WorkloadSpec) *workload.Tree { return workload.NewFib(ws.M) })
	RegisterWorkload("dc", func(ws WorkloadSpec) *workload.Tree { return workload.NewDC(ws.M, ws.N) })
	RegisterWorkload("binary", func(ws WorkloadSpec) *workload.Tree { return workload.NewFullBinary(ws.N) })
	RegisterWorkload("skew", func(ws WorkloadSpec) *workload.Tree { return workload.NewSkewed(ws.N) })
	RegisterWorkload("chain", func(ws WorkloadSpec) *workload.Tree { return workload.NewChain(ws.N) })
	RegisterWorkload("random", func(ws WorkloadSpec) *workload.Tree {
		return workload.NewRandom(workload.RandomConfig{Seed: ws.Seed, Goals: ws.N, MaxKids: 4, MaxWork: 3, LeafValue: 1})
	})
	RegisterWorkload("imbal", func(ws WorkloadSpec) *workload.Tree { return workload.NewImbalanced(ws.N, ws.Frac) })
}

// Label is a short stable identifier, e.g. "fib(18)" or "dc(1,4181)".
func (ws WorkloadSpec) Label() string {
	switch ws.Kind {
	case "fib":
		return fmt.Sprintf("fib(%d)", ws.M)
	case "dc":
		return fmt.Sprintf("dc(%d,%d)", ws.M, ws.N)
	case "random":
		return fmt.Sprintf("random(%d,seed=%d)", ws.N, ws.Seed)
	case "imbal":
		return fmt.Sprintf("imbal(%d,%.2f)", ws.N, ws.Frac)
	default:
		return fmt.Sprintf("%s(%d)", ws.Kind, ws.N)
	}
}

var (
	treeCacheMu sync.Mutex
	treeCache   = map[string]*workload.Tree{}
)

// StrategySpec names a load-distribution strategy and its parameters.
type StrategySpec struct {
	Kind          string `json:"kind"` // cwn|gm|acwn|local|randomwalk|roundrobin|worksteal
	Radius        int    `json:"radius,omitempty"`
	Horizon       int    `json:"horizon,omitempty"`
	Low           int    `json:"low,omitempty"`
	High          int    `json:"high,omitempty"`
	Interval      int64  `json:"interval,omitempty"`
	Sat           int    `json:"sat,omitempty"`
	Redistribute  bool   `json:"redistribute,omitempty"`
	RequireTarget bool   `json:"requireTarget,omitempty"`
	Strict        bool   `json:"strict,omitempty"`       // CWN/ACWN strict local-minimum rule
	ExportNewest  bool   `json:"exportNewest,omitempty"` // GM newest-goal export policy
	Steps         int    `json:"steps,omitempty"`
	Threshold     int    `json:"threshold,omitempty"`
	// FailureAware opts cwn/gm/worksteal nodes into the environment
	// event stream (PEFailed/PERecovered): immediate re-steering and
	// backfill on availability changes instead of sentinel-only
	// reaction. Ignored by strategies without a failure-aware mode.
	FailureAware bool `json:"failureAware,omitempty"`
}

// CWN returns a CWN strategy spec.
func CWN(radius, horizon int) StrategySpec {
	return StrategySpec{Kind: "cwn", Radius: radius, Horizon: horizon}
}

// GM returns a Gradient Model strategy spec.
func GM(low, high int, interval int64) StrategySpec {
	return StrategySpec{Kind: "gm", Low: low, High: high, Interval: interval}
}

// ACWN returns an adaptive-CWN strategy spec.
func ACWN(radius, horizon, sat int, interval int64) StrategySpec {
	return StrategySpec{Kind: "acwn", Radius: radius, Horizon: horizon, Sat: sat, Interval: interval, Redistribute: true}
}

// Build constructs a fresh strategy via the strategy registry.
func (ss StrategySpec) Build() machine.Strategy {
	return strategyRegistry.build(ss.Kind, ss)
}

func init() {
	RegisterStrategy("cwn", func(ss StrategySpec) machine.Strategy {
		c := core.NewCWN(ss.Radius, ss.Horizon)
		c.StrictMinimum = ss.Strict
		c.FailureAware = ss.FailureAware
		return c
	})
	RegisterStrategy("gm", func(ss StrategySpec) machine.Strategy {
		g := core.NewGradient(ss.Low, ss.High, sim.Time(ss.Interval))
		g.RequireTarget = ss.RequireTarget
		g.ExportNewest = ss.ExportNewest
		g.FailureAware = ss.FailureAware
		return g
	})
	RegisterStrategy("acwn", func(ss StrategySpec) machine.Strategy {
		a := core.NewACWN(ss.Radius, ss.Horizon, ss.Sat, sim.Time(ss.Interval))
		a.Redistribute = ss.Redistribute
		a.StrictMinimum = ss.Strict
		return a
	})
	RegisterStrategy("local", func(StrategySpec) machine.Strategy { return core.NewLocal() })
	RegisterStrategy("randomwalk", func(ss StrategySpec) machine.Strategy { return core.NewRandomWalk(ss.Steps) })
	RegisterStrategy("roundrobin", func(StrategySpec) machine.Strategy { return core.NewRoundRobin() })
	RegisterStrategy("worksteal", func(ss StrategySpec) machine.Strategy {
		w := core.NewWorkSteal(sim.Time(ss.Interval), ss.Threshold)
		w.FailureAware = ss.FailureAware
		return w
	})
	RegisterStrategy("diffusion", func(ss StrategySpec) machine.Strategy { return core.NewDiffusion(sim.Time(ss.Interval)) })
	RegisterStrategy("ideal", func(StrategySpec) machine.Strategy { return core.NewIdeal() })
}

// Label returns the built strategy's display name.
func (ss StrategySpec) Label() string { return ss.Build().Name() }

// ShortLabel returns just the scheme family, for table columns.
func (ss StrategySpec) ShortLabel() string {
	switch ss.Kind {
	case "cwn":
		return "CWN"
	case "gm":
		return "GM"
	case "acwn":
		return "ACWN"
	default:
		return ss.Kind
	}
}
