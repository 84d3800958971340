package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// maxPEs is the largest machine a topology argument may describe: the
// implicit hypercube's ceiling (dimension 30), which also keeps every
// PE and channel count inside the machine's int32 indexes.
const maxPEs = 1 << 30

// ParseTopo parses a topology argument of the form:
//
//	grid:RxC | torus:RxC | dlm:RxC:SPAN | torus3d:XxYxZ | hypercube:D |
//	chordal:N:CHORD | ring:N | complete:N | star:N | bus:N | single
//
// Sizes the topology constructors refuse are errors here: every
// dimension must be positive, a machine holds at most 2^30 PEs, a DLM
// span is at least 2 and divides both sides, a hypercube dimension lies
// in [0,30], a ring or chordal ring has at least 3 PEs with a chord in
// [2,N/2], a star or bus at least 2, and a complete graph at least 1.
func ParseTopo(s string) (TopoSpec, error) {
	parts := strings.Split(s, ":")
	kind := parts[0]
	// dims parses an XxY[xZ] size with want positive factors whose
	// product is at most maxPEs.
	dims := func(str string, want int) ([]int, error) {
		fs := strings.Split(str, "x")
		if len(fs) != want {
			return nil, fmt.Errorf("want %d dimensions joined by x, got %q", want, str)
		}
		out := make([]int, want)
		pes := 1
		for i, f := range fs {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("bad dimensions %q", str)
			}
			if v < 1 || v > maxPEs/pes {
				return nil, fmt.Errorf("dimensions %q must be positive with at most %d PEs in all", str, maxPEs)
			}
			out[i] = v
			pes *= v
		}
		return out, nil
	}
	switch kind {
	case "grid", "torus":
		if len(parts) != 2 {
			return TopoSpec{}, fmt.Errorf("usage: %s:RxC", kind)
		}
		rc, err := dims(parts[1], 2)
		if err != nil {
			return TopoSpec{}, err
		}
		return TopoSpec{Kind: kind, Rows: rc[0], Cols: rc[1]}, nil
	case "dlm":
		if len(parts) != 3 {
			return TopoSpec{}, fmt.Errorf("usage: dlm:RxC:SPAN")
		}
		rc, err := dims(parts[1], 2)
		if err != nil {
			return TopoSpec{}, err
		}
		span, err := strconv.Atoi(parts[2])
		if err != nil {
			return TopoSpec{}, fmt.Errorf("bad span %q", parts[2])
		}
		if span < 2 || rc[0]%span != 0 || rc[1]%span != 0 {
			return TopoSpec{}, fmt.Errorf("dlm span %d must be at least 2 and divide both sides of %s", span, parts[1])
		}
		return TopoSpec{Kind: "dlm", Rows: rc[0], Cols: rc[1], Span: span}, nil
	case "torus3d":
		if len(parts) != 2 {
			return TopoSpec{}, fmt.Errorf("usage: torus3d:XxYxZ")
		}
		xyz, err := dims(parts[1], 3)
		if err != nil {
			return TopoSpec{}, err
		}
		return TopoSpec{Kind: "torus3d", Rows: xyz[0], Cols: xyz[1], Z: xyz[2]}, nil
	case "chordal":
		if len(parts) != 3 {
			return TopoSpec{}, fmt.Errorf("usage: chordal:N:CHORD")
		}
		n, err1 := strconv.Atoi(parts[1])
		c, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			return TopoSpec{}, fmt.Errorf("bad chordal args %q", s)
		}
		if n < 3 || n > maxPEs || c < 2 || c > n/2 {
			return TopoSpec{}, fmt.Errorf("chordal needs 3 <= N <= %d and 2 <= CHORD <= N/2, got %q", maxPEs, s)
		}
		return TopoSpec{Kind: "chordal", N: n, Chord: c}, nil
	case "hypercube":
		if len(parts) != 2 {
			return TopoSpec{}, fmt.Errorf("usage: hypercube:DIM")
		}
		d, err := strconv.Atoi(parts[1])
		if err != nil {
			return TopoSpec{}, fmt.Errorf("bad dimension %q", parts[1])
		}
		if d < 0 || d > 30 {
			return TopoSpec{}, fmt.Errorf("hypercube dimension %d out of range [0,30]", d)
		}
		return TopoSpec{Kind: "hypercube", Dim: d}, nil
	case "ring", "complete", "star", "bus":
		if len(parts) != 2 {
			return TopoSpec{}, fmt.Errorf("usage: %s:N", kind)
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			return TopoSpec{}, fmt.Errorf("bad size %q", parts[1])
		}
		least := 2 // star, bus
		switch kind {
		case "ring":
			least = 3
		case "complete":
			least = 1
		}
		if n < least || n > maxPEs {
			return TopoSpec{}, fmt.Errorf("%s needs %d <= N <= %d, got %d", kind, least, maxPEs, n)
		}
		return TopoSpec{Kind: kind, N: n}, nil
	case "single":
		return TopoSpec{Kind: "single"}, nil
	default:
		return TopoSpec{}, fmt.Errorf("unknown topology %q", kind)
	}
}

// ParseWorkload parses a workload argument:
//
//	fib:M | dc:X | dc:M:N | binary:DEPTH | skew:N | chain:N | random:N:SEED
//
// Arguments the tree constructors refuse are errors here: fib's M lies
// in [0,40], dc's range M..N is non-empty and spans at most 2^22, a
// binary depth lies in [0,24], skew and chain sizes in [1,2^20], and a
// random tree has at least one goal.
func ParseWorkload(s string) (WorkloadSpec, error) {
	parts := strings.Split(s, ":")
	atoi := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("missing argument in %q", s)
		}
		return strconv.Atoi(parts[i])
	}
	// inRange checks one argument against its constructor's range.
	inRange := func(v, lo, hi int) error {
		if v < lo || v > hi {
			return fmt.Errorf("%s argument %d out of range [%d,%d]", parts[0], v, lo, hi)
		}
		return nil
	}
	switch parts[0] {
	case "fib":
		m, err := atoi(1)
		if err != nil {
			return WorkloadSpec{}, err
		}
		if err := inRange(m, 0, 40); err != nil {
			return WorkloadSpec{}, err
		}
		return Fib(m), nil
	case "dc":
		var ws WorkloadSpec
		switch len(parts) {
		case 2:
			x, err := atoi(1)
			if err != nil {
				return WorkloadSpec{}, err
			}
			ws = DC(x)
		case 3:
			m, err1 := atoi(1)
			n, err2 := atoi(2)
			if err1 != nil || err2 != nil {
				return WorkloadSpec{}, fmt.Errorf("bad dc range %q", s)
			}
			ws = WorkloadSpec{Kind: "dc", M: m, N: n}
		default:
			return WorkloadSpec{}, fmt.Errorf("usage: dc:X or dc:M:N")
		}
		// The unsigned difference is exact once M <= N.
		if ws.M > ws.N || uint(ws.N)-uint(ws.M) > 1<<22 {
			return WorkloadSpec{}, fmt.Errorf("dc range %d..%d must be non-empty and span at most %d", ws.M, ws.N, 1<<22)
		}
		return ws, nil
	case "binary", "skew", "chain":
		n, err := atoi(1)
		if err != nil {
			return WorkloadSpec{}, err
		}
		lo, hi := 1, 1<<20
		if parts[0] == "binary" {
			lo, hi = 0, 24
		}
		if err := inRange(n, lo, hi); err != nil {
			return WorkloadSpec{}, err
		}
		return WorkloadSpec{Kind: parts[0], N: n}, nil
	case "random":
		n, err := atoi(1)
		if err != nil {
			return WorkloadSpec{}, err
		}
		if n < 1 {
			return WorkloadSpec{}, fmt.Errorf("random needs at least 1 goal, got %d", n)
		}
		seed := 1
		if len(parts) > 2 {
			if seed, err = atoi(2); err != nil {
				return WorkloadSpec{}, err
			}
		}
		return WorkloadSpec{Kind: "random", N: n, Seed: int64(seed)}, nil
	default:
		return WorkloadSpec{}, fmt.Errorf("unknown workload %q", parts[0])
	}
}

// ParseArrival parses an arrival-process argument:
//
//	single | interval:GAP:JOBS | poisson:MEANGAP:JOBS | burst:SIZE:GAP:BURSTS
func ParseArrival(s string) (ArrivalSpec, error) {
	parts := strings.Split(s, ":")
	atoi := func(i int) (int, error) {
		if i >= len(parts) {
			return 0, fmt.Errorf("missing argument in %q", s)
		}
		return strconv.Atoi(parts[i])
	}
	switch parts[0] {
	case "single":
		if len(parts) != 1 {
			return ArrivalSpec{}, fmt.Errorf("single takes no arguments, got %q", s)
		}
		return SingleArrival(), nil
	case "interval":
		gap, err1 := atoi(1)
		jobs, err2 := atoi(2)
		if err1 != nil || err2 != nil || len(parts) != 3 {
			return ArrivalSpec{}, fmt.Errorf("usage: interval:GAP:JOBS")
		}
		if gap <= 0 || jobs < 1 {
			return ArrivalSpec{}, fmt.Errorf("interval needs GAP > 0 and JOBS >= 1, got %q", s)
		}
		return IntervalArrivals(int64(gap), jobs), nil
	case "poisson":
		if len(parts) != 3 {
			return ArrivalSpec{}, fmt.Errorf("usage: poisson:MEANGAP:JOBS")
		}
		mean, err1 := strconv.ParseFloat(parts[1], 64)
		jobs, err2 := atoi(2)
		if err1 != nil || err2 != nil {
			return ArrivalSpec{}, fmt.Errorf("usage: poisson:MEANGAP:JOBS")
		}
		// !(mean > 0) also rejects NaN, which `mean <= 0` would let through.
		if !(mean > 0) || math.IsInf(mean, 0) || jobs < 1 {
			return ArrivalSpec{}, fmt.Errorf("poisson needs a finite MEANGAP > 0 and JOBS >= 1, got %q", s)
		}
		return PoissonArrivals(mean, jobs), nil
	case "burst":
		size, err1 := atoi(1)
		gap, err2 := atoi(2)
		bursts, err3 := atoi(3)
		if err1 != nil || err2 != nil || err3 != nil || len(parts) != 4 {
			return ArrivalSpec{}, fmt.Errorf("usage: burst:SIZE:GAP:BURSTS")
		}
		if size < 1 || gap <= 0 || bursts < 1 {
			return ArrivalSpec{}, fmt.Errorf("burst needs SIZE >= 1, GAP > 0 and BURSTS >= 1, got %q", s)
		}
		return BurstArrivals(size, int64(gap), bursts), nil
	default:
		return ArrivalSpec{}, fmt.Errorf("unknown arrival process %q", parts[0])
	}
}

// ParseStrategy parses a strategy argument:
//
//	cwn:RADIUS:HORIZON | gm:LOW:HIGH:INTERVAL | acwn:RADIUS:HORIZON:SAT:INTERVAL |
//	local | randomwalk:STEPS | roundrobin | worksteal:INTERVAL:THRESHOLD
//
// A "+fa" suffix on the kind (cwn+fa, gm+fa, worksteal+fa) selects the
// failure-aware variant: the strategy's nodes subscribe to the
// machine's PEFailed/PERecovered environment events.
func ParseStrategy(s string) (StrategySpec, error) {
	parts := strings.Split(s, ":")
	kind, fa := strings.CutSuffix(parts[0], "+fa")
	if fa {
		switch kind {
		case "cwn", "gm", "worksteal":
			parts[0] = kind
		default:
			return StrategySpec{}, fmt.Errorf("strategy %q has no failure-aware variant", kind)
		}
	}
	spec, err := parseStrategyBase(parts, s)
	if err != nil {
		return StrategySpec{}, err
	}
	spec.FailureAware = fa
	return spec, nil
}

func parseStrategyBase(parts []string, s string) (StrategySpec, error) {
	nums := make([]int, 0, len(parts)-1)
	for _, p := range parts[1:] {
		v, err := strconv.Atoi(p)
		if err != nil {
			return StrategySpec{}, fmt.Errorf("bad number %q in %q", p, s)
		}
		nums = append(nums, v)
	}
	need := func(n int, usage string) error {
		if len(nums) != n {
			return fmt.Errorf("usage: %s", usage)
		}
		return nil
	}
	switch parts[0] {
	case "cwn":
		if err := need(2, "cwn:RADIUS:HORIZON"); err != nil {
			return StrategySpec{}, err
		}
		return CWN(nums[0], nums[1]), nil
	case "gm":
		if err := need(3, "gm:LOW:HIGH:INTERVAL"); err != nil {
			return StrategySpec{}, err
		}
		return GM(nums[0], nums[1], int64(nums[2])), nil
	case "acwn":
		if err := need(4, "acwn:RADIUS:HORIZON:SAT:INTERVAL"); err != nil {
			return StrategySpec{}, err
		}
		return ACWN(nums[0], nums[1], nums[2], int64(nums[3])), nil
	case "local":
		return StrategySpec{Kind: "local"}, nil
	case "randomwalk":
		if err := need(1, "randomwalk:STEPS"); err != nil {
			return StrategySpec{}, err
		}
		return StrategySpec{Kind: "randomwalk", Steps: nums[0]}, nil
	case "roundrobin":
		return StrategySpec{Kind: "roundrobin"}, nil
	case "worksteal":
		if err := need(2, "worksteal:INTERVAL:THRESHOLD"); err != nil {
			return StrategySpec{}, err
		}
		return StrategySpec{Kind: "worksteal", Interval: int64(nums[0]), Threshold: nums[1]}, nil
	case "diffusion":
		if err := need(1, "diffusion:INTERVAL"); err != nil {
			return StrategySpec{}, err
		}
		return StrategySpec{Kind: "diffusion", Interval: int64(nums[0])}, nil
	case "ideal":
		return StrategySpec{Kind: "ideal"}, nil
	default:
		return StrategySpec{}, fmt.Errorf("unknown strategy %q", parts[0])
	}
}
