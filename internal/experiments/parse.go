package experiments

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseTopo parses a topology argument of the form:
//
//	grid:RxC | torus:RxC | dlm:RxC:SPAN | torus3d:XxYxZ | hypercube:D |
//	chordal:N:CHORD | ring:N | complete:N | star:N | bus:N | single
//
// and returns the spec if it passes the topology rules of
// RunSpec.Validate.
func ParseTopo(s string) (TopoSpec, error) {
	parts := strings.Split(s, ":")
	ts := TopoSpec{Kind: parts[0]}
	// Each kind's usage, the fields its arguments fill in order, and how
	// many of them its first argument joins with x.
	var usage string
	var fields []*int
	dims := 1
	switch ts.Kind {
	case "grid", "torus":
		usage, fields, dims = ts.Kind+":RxC", []*int{&ts.Rows, &ts.Cols}, 2
	case "dlm":
		usage, fields, dims = "dlm:RxC:SPAN", []*int{&ts.Rows, &ts.Cols, &ts.Span}, 2
	case "torus3d":
		usage, fields, dims = "torus3d:XxYxZ", []*int{&ts.Rows, &ts.Cols, &ts.Z}, 3
	case "chordal":
		usage, fields = "chordal:N:CHORD", []*int{&ts.N, &ts.Chord}
	case "hypercube":
		usage, fields = "hypercube:DIM", []*int{&ts.Dim}
	case "ring", "complete", "star", "bus":
		usage, fields = ts.Kind+":N", []*int{&ts.N}
	}
	if usage != "" {
		args := parts[1:]
		if len(args)+dims-1 != len(fields) {
			return TopoSpec{}, fmt.Errorf("usage: %s", usage)
		}
		if dims > 1 {
			sizes := strings.Split(args[0], "x")
			if len(sizes) != dims {
				return TopoSpec{}, fmt.Errorf("want %d dimensions joined by x, got %q", dims, args[0])
			}
			args = append(sizes, args[1:]...)
		}
		for i, a := range args {
			v, err := strconv.Atoi(a)
			if err != nil {
				return TopoSpec{}, fmt.Errorf("bad number %q in %q", a, s)
			}
			*fields[i] = v
		}
	}
	return checked(ts)
}

// ParseWorkload parses a workload argument:
//
//	fib:M | dc:X | dc:M:N | binary:DEPTH | skew:N | chain:N | random:N[:SEED]
//
// and returns the spec if it passes the workload rules of
// RunSpec.Validate. Arguments past a kind's last one are errors.
func ParseWorkload(s string) (WorkloadSpec, error) {
	parts := strings.Split(s, ":")
	ws := WorkloadSpec{Kind: parts[0]}
	switch ws.Kind {
	case "fib":
		a, err := intArgs(parts, 1, 1, "fib:M")
		if err != nil {
			return WorkloadSpec{}, err
		}
		ws = Fib(a[0])
	case "dc":
		a, err := intArgs(parts, 1, 2, "dc:X or dc:M:N")
		if err != nil {
			return WorkloadSpec{}, err
		}
		ws = DC(a[0])
		if len(a) == 2 {
			ws.M, ws.N = a[0], a[1]
		}
	case "binary", "skew", "chain":
		a, err := intArgs(parts, 1, 1, ws.Kind+":N")
		if err != nil {
			return WorkloadSpec{}, err
		}
		ws.N = a[0]
	case "random":
		a, err := intArgs(parts, 1, 2, "random:N[:SEED]")
		if err != nil {
			return WorkloadSpec{}, err
		}
		ws.N, ws.Seed = a[0], 1
		if len(a) == 2 {
			ws.Seed = int64(a[1])
		}
	}
	return checked(ws)
}

// ParseArrival parses an arrival-process argument:
//
//	single | interval:GAP:JOBS | poisson:MEANGAP:JOBS | burst:SIZE:GAP:BURSTS
//
// and returns the spec if it passes the arrival rules of
// RunSpec.Validate.
func ParseArrival(s string) (ArrivalSpec, error) {
	parts := strings.Split(s, ":")
	as := ArrivalSpec{Kind: parts[0]}
	switch as.Kind {
	case "":
		return ArrivalSpec{}, fmt.Errorf("usage: single | interval:GAP:JOBS | poisson:MEANGAP:JOBS | burst:SIZE:GAP:BURSTS")
	case "single":
		if len(parts) != 1 {
			return ArrivalSpec{}, fmt.Errorf("single takes no arguments, got %q", s)
		}
	case "interval":
		a, err := intArgs(parts, 2, 2, "interval:GAP:JOBS")
		if err != nil {
			return ArrivalSpec{}, err
		}
		as = IntervalArrivals(int64(a[0]), a[1])
	case "poisson":
		if len(parts) != 3 {
			return ArrivalSpec{}, fmt.Errorf("usage: poisson:MEANGAP:JOBS")
		}
		mean, err1 := strconv.ParseFloat(parts[1], 64)
		jobs, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			return ArrivalSpec{}, fmt.Errorf("usage: poisson:MEANGAP:JOBS")
		}
		as = PoissonArrivals(mean, jobs)
	case "burst":
		a, err := intArgs(parts, 3, 3, "burst:SIZE:GAP:BURSTS")
		if err != nil {
			return ArrivalSpec{}, err
		}
		as = BurstArrivals(a[0], int64(a[1]), a[2])
	}
	return checked(as)
}

// ParseStrategy parses a strategy argument:
//
//	cwn:RADIUS:HORIZON | gm:LOW:HIGH:INTERVAL | acwn:RADIUS:HORIZON:SAT:INTERVAL |
//	local | randomwalk:STEPS | roundrobin | worksteal:INTERVAL:THRESHOLD |
//	diffusion:INTERVAL | ideal
//
// A "+fa" suffix on the kind (cwn+fa, gm+fa, worksteal+fa) selects the
// failure-aware variant: the strategy's nodes subscribe to the
// machine's PEFailed/PERecovered environment events.
//
// It returns the spec if it passes the strategy rules of
// RunSpec.Validate. Any argument count but the kind's own is an error.
func ParseStrategy(s string) (StrategySpec, error) {
	parts := strings.Split(s, ":")
	kind, fa := strings.CutSuffix(parts[0], "+fa")
	// Each kind's usage names its arguments, one after each colon.
	usage := map[string]string{
		"cwn": "cwn:RADIUS:HORIZON", "gm": "gm:LOW:HIGH:INTERVAL", "acwn": "acwn:RADIUS:HORIZON:SAT:INTERVAL",
		"local": "local", "roundrobin": "roundrobin", "ideal": "ideal", "randomwalk": "randomwalk:STEPS",
		"worksteal": "worksteal:INTERVAL:THRESHOLD", "diffusion": "diffusion:INTERVAL",
	}[kind]
	if usage == "" {
		return checked(StrategySpec{Kind: kind}) // reports the unknown kind
	}
	n := strings.Count(usage, ":")
	nums, err := intArgs(parts, n, n, usage)
	if err != nil {
		return StrategySpec{}, err
	}
	ss := StrategySpec{Kind: kind}
	switch kind {
	case "cwn":
		ss = CWN(nums[0], nums[1])
	case "gm":
		ss = GM(nums[0], nums[1], int64(nums[2]))
	case "acwn":
		ss = ACWN(nums[0], nums[1], nums[2], int64(nums[3]))
	case "randomwalk":
		ss.Steps = nums[0]
	case "worksteal":
		ss.Interval, ss.Threshold = int64(nums[0]), nums[1]
	case "diffusion":
		ss.Interval = int64(nums[0])
	}
	ss.FailureAware = fa
	return checked(ss)
}

// intArgs parses the arguments after the kind in parts as integers, of
// which there must be between lo and hi.
func intArgs(parts []string, lo, hi int, usage string) ([]int, error) {
	if n := len(parts) - 1; n < lo || n > hi {
		return nil, fmt.Errorf("usage: %s", usage)
	}
	out := make([]int, len(parts)-1)
	for i, p := range parts[1:] {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad number %q in %q", p, strings.Join(parts, ":"))
		}
		out[i] = v
	}
	return out, nil
}
