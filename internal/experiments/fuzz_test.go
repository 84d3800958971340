package experiments

import (
	"testing"
	"testing/quick"
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
// most 1024 PEs, builds it. It builds through the registry rather than
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
	topo := topoRegistry.build(ts.Kind, ts)
	if topo.Size() != ts.PEs() {
		t.Fatalf("ParseTopo(%q) describes %d PEs but builds %d", s, ts.PEs(), topo.Size())
	}
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
