package experiments

import (
	"testing"
	"testing/quick"

	"cwnsim/internal/workload"
)

// The parsers must return errors, never panic, on arbitrary input.

func TestQuickParseTopoNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ParseTopo(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseWorkloadNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ParseWorkload(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickParseStrategyNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		_, _ = ParseStrategy(s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Structured fuzz: colon-joined fragments resembling real inputs.
func TestQuickParseStructuredInputs(t *testing.T) {
	kinds := []string{"grid", "torus", "dlm", "hypercube", "ring", "chordal", "single", "bogus", ""}
	f := func(k uint8, a, b, c int8) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		s := kinds[int(k)%len(kinds)]
		switch int(a) % 3 {
		case 0:
			s += ":" + itoa(int(b)) + "x" + itoa(int(c))
		case 1:
			s += ":" + itoa(int(b)) + ":" + itoa(int(c))
		case 2:
			s += ":" + itoa(int(b))
		}
		checkTopoArg(t, s)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// FuzzParseTopo holds ParseTopo to its contract: it never panics, and a
// spec it accepts describes a machine the topology constructors build.
func FuzzParseTopo(f *testing.F) {
	for _, s := range []string{
		"grid:10x10", "torus:4x8", "dlm:10x10:5", "dlm:8x8:4", "hypercube:7", "torus3d:4x4x4",
		"chordal:16:4", "ring:9", "complete:6", "star:5", "bus:8", "single",
		"grid:0x3", "hypercube:40", "dlm:4x4:9", "chordal:8:0",
	} {
		f.Add(s)
	}
	f.Fuzz(checkTopoArg)
}

// checkTopoArg parses s and, when ParseTopo accepts a machine of at
// most 1024 PEs, builds it. It builds uncached rather than through
// TopoSpec.Build, whose process-wide cache would keep every fuzzed
// topology alive.
func checkTopoArg(t *testing.T, s string) {
	ts, err := ParseTopo(s)
	if err != nil {
		return
	}
	n := ts.PEs()
	if n < 1 || n > maxPEs {
		t.Fatalf("ParseTopo(%q) accepted %d PEs", s, n)
	}
	if n > 1024 {
		return
	}
	topo := ts.build()
	if topo.Size() != ts.PEs() {
		t.Fatalf("ParseTopo(%q) describes %d PEs but builds %d", s, ts.PEs(), topo.Size())
	}
}

// FuzzParseWorkload holds ParseWorkload to its contract: it never
// panics, and a spec it accepts builds.
func FuzzParseWorkload(f *testing.F) {
	for _, s := range []string{
		"fib:15", "dc:4181", "dc:5:17", "binary:6", "skew:10", "chain:50", "random:200:7", "random:9",
		"fib:41", "dc:9:2", "binary:25", "chain:0", "random:0", "fib:8:junk", "dc:-1:0", "dc:-5:17",
	} {
		f.Add(s)
	}
	f.Fuzz(checkWorkloadArg)
}

// checkWorkloadArg parses s and, when ParseWorkload accepts a small
// tree, builds it. Like checkTopoArg it builds uncached, because
// WorkloadSpec.Build caches every tree for the life of the process.
func checkWorkloadArg(t *testing.T, s string) {
	ws, err := ParseWorkload(s)
	if err != nil || !smallTree(ws) {
		return
	}
	if tree := ws.build(); tree.Root == nil {
		t.Fatalf("ParseWorkload(%q) built a tree with no root", s)
	}
}

// smallTree reports whether a valid spec's tree has at most about 4096
// goals.
func smallTree(ws WorkloadSpec) bool {
	switch ws.Kind {
	case "fib":
		return ws.M <= 16
	case "dc":
		return ws.N-ws.M <= 2048
	case "binary":
		return ws.N <= 11
	default: // skew, chain, random, imbal: N goals or about that
		return ws.N <= 4096
	}
}

// FuzzParseStrategy holds ParseStrategy to its contract: it never
// panics, and a spec it accepts builds.
func FuzzParseStrategy(f *testing.F) {
	for _, s := range []string{
		"cwn:9:2", "cwn+fa:9:2", "gm:1:2:20", "gm+fa:0:0:1", "acwn:9:2:3:40", "local", "randomwalk:3",
		"roundrobin", "worksteal:20:1", "worksteal+fa:20:1", "diffusion:20", "ideal",
		"gm:1:2:0", "cwn:0:0", "cwn:5:-2", "worksteal:5:0", "diffusion:0", "randomwalk:-1", "local:7",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ss, err := ParseStrategy(s)
		if err != nil {
			return
		}
		if ss.Build() == nil {
			t.Fatalf("ParseStrategy(%q) built a nil strategy", s)
		}
	})
}

// FuzzParseArrival holds ParseArrival to its contract: it never
// panics, and a spec it accepts builds a job source.
func FuzzParseArrival(f *testing.F) {
	for _, s := range []string{
		"single", "interval:100:50", "poisson:62.5:200", "burst:20:500:4",
		"poisson:0:5", "poisson:NaN:10", "poisson:1e-300:1", "interval:0:10", "burst:5:0:2", "single:1",
	} {
		f.Add(s)
	}
	tree := workload.NewFib(3)
	f.Fuzz(func(t *testing.T, s string) {
		as, err := ParseArrival(s)
		if err != nil {
			return
		}
		if as.Build(tree) == nil {
			t.Fatalf("ParseArrival(%q) built a nil job source", s)
		}
	})
}

func itoa(v int) string {
	// tiny strconv.Itoa wrapper to keep the fuzz input printable
	if v < 0 {
		return "-" + itoa(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa(v/10) + string(rune('0'+v%10))
}
