package scenario

import (
	"sort"
	"testing"
)

// TestChaosExpandDeterministic pins the generator's seed contract: the
// same (seed, machine size, horizon) expands to the identical timeline
// every time, and a different seed draws a different one.
func TestChaosExpandDeterministic(t *testing.T) {
	script := MustParse("chaos:mtbf=800:mttr=300@seed=7")
	a := script.Expand(16, 50_000)
	b := script.Expand(16, 50_000)
	if len(a.Events) == 0 {
		t.Fatal("chaos expanded to nothing over a 50k horizon with mtbf 800")
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("expansions differ in length: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].String() != b.Events[i].String() {
			t.Fatalf("event %d differs: %s vs %s", i, a.Events[i], b.Events[i])
		}
	}
	other := MustParse("chaos:mtbf=800:mttr=300@seed=8").Expand(16, 50_000)
	if len(other.Events) == len(a.Events) {
		same := true
		for i := range a.Events {
			if a.Events[i].String() != other.Events[i].String() {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds drew the identical timeline")
		}
	}
}

// TestChaosExpandWellFormed checks the generated timeline's structure:
// sorted fail/recover pairs inside the horizon, each fail matched by a
// later recover of the same PE, never all PEs down at once, and crash
// mode generating CrashPE events.
func TestChaosExpandWellFormed(t *testing.T) {
	const numPEs, horizon = 4, 60_000
	sc := MustParse("chaos:mtbf=300:mttr=1000:crash@seed=5").Expand(numPEs, horizon)
	if err := sc.Validate(numPEs); err != nil {
		t.Fatalf("expanded script invalid: %v", err)
	}
	if !sort.SliceIsSorted(sc.Events, func(i, j int) bool { return sc.Events[i].At < sc.Events[j].At }) {
		t.Fatal("expanded events not in firing order")
	}
	down := map[int]bool{}
	sawCrash := false
	for _, e := range sc.Events {
		switch e.Kind {
		case CrashPE:
			sawCrash = true
			pe := e.PEs[0]
			if down[pe] {
				t.Fatalf("PE %d crashed while already down at t=%d", pe, e.At)
			}
			down[pe] = true
			if len(down) >= numPEs {
				t.Fatalf("all PEs down at t=%d", e.At)
			}
		case RecoverPE:
			pe := e.PEs[0]
			if !down[pe] {
				t.Fatalf("PE %d recovered while up at t=%d", pe, e.At)
			}
			delete(down, pe)
		default:
			t.Fatalf("unexpected kind %s in expansion", e.Kind)
		}
		if e.At >= horizon && e.Kind != RecoverPE {
			t.Fatalf("failure generated beyond the horizon: %s", e)
		}
	}
	if !sawCrash {
		t.Fatal("crash-mode chaos generated no CrashPE events")
	}
}

// TestChaosExpandLeavesConcreteScriptsAlone pins the zero-cost path: a
// script without chaos events expands to itself (same pointer), so the
// empty-scenario guarantee is untouched.
func TestChaosExpandLeavesConcreteScriptsAlone(t *testing.T) {
	sc := MustParse("fail:pes=25%@t=5000,recover@t=10000")
	if got := sc.Expand(16, 50_000); got != sc {
		t.Fatal("concrete script was copied by Expand")
	}
	var empty *Script
	if got := empty.Expand(16, 50_000); got != empty {
		t.Fatal("nil script was touched by Expand")
	}
}

// canonicalScripts are crash and chaos scripts already in the form
// String renders.
var canonicalScripts = []string{
	"crash:pes=25%@t=5000,recover@t=10000",
	"crash:pes=3+7@t=100",
	"chaos:mtbf=3000:mttr=800@seed=7",
	"chaos:mtbf=3000:mttr=800:until=20000:crash@seed=7",
}

// TestCrashAndChaosParseRoundTrip extends the text-form round trip to
// the two new ops.
func TestCrashAndChaosParseRoundTrip(t *testing.T) {
	for _, text := range canonicalScripts {
		sc, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		if got := sc.String(); got != text {
			t.Fatalf("round trip %q -> %q", text, got)
		}
	}
}

// TestChaosParseErrors pins the chaos grammar's rejections.
func TestChaosParseErrors(t *testing.T) {
	for _, text := range []string{
		"chaos:mtbf=3000@seed=7",              // missing mttr
		"chaos:mttr=800@seed=7",               // missing mtbf
		"chaos:mtbf=3000:mttr=800@t=7",        // wrong suffix
		"chaos:mtbf=3000:mttr=800:z=1@seed=7", // unknown key
		"crash@t=10",                          // crash without targets passes parse...
	} {
		sc, err := Parse(text)
		if err != nil {
			continue
		}
		// ...but must then fail validation.
		if verr := sc.Validate(16); verr == nil {
			t.Fatalf("Parse+Validate accepted %q", text)
		}
	}
	if err := MustParse("chaos:mtbf=3000:mttr=-1@seed=2").Validate(16); err == nil {
		t.Fatal("negative mttr validated")
	}
}
