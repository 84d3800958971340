package scenario

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cwnsim/internal/sim"
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

// TestCheckExpansionCaps pins the expansion bound at the default
// horizon: a generator drawing past MaxGenerated strikes or ticks is
// refused with an error naming the field; the tree's smallest mtbf,
// periods at the cap and an until that shortens the span pass. An mtbf
// under one time unit fails validation first.
func TestCheckExpansionCaps(t *testing.T) {
	const horizon = 2_000_000
	if err := MustParse("chaos:mtbf=0.5:mttr=1@seed=1").Validate(16); err == nil || !strings.Contains(err.Error(), "mtbf 0.5 must be finite and at least one time unit") {
		t.Errorf("mtbf 0.5 validated with error %v", err)
	}
	for _, c := range []struct{ script, want string }{
		{"chaos:mtbf=1.5:mttr=1@seed=1", "event 0 (chaos): mtbf 1.5 expects 1333333 strikes by t=2000000"},
		{"fail:pes=0@t=5,checkpoint:every=1:cost=1@t=0", "event 1 (checkpoint): every 1 makes 2000000 ticks by t=2000000"},
		{"chaos:mtbf=9:mttr=9@seed=1", ""},
		{"chaos:mtbf=2:mttr=1@seed=1,checkpoint:every=2:cost=1@t=0", ""},
		{"chaos:mtbf=1:mttr=1:until=1000000@seed=1", ""},
	} {
		err := MustParse(c.script).CheckExpansion(horizon)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: refused: %v", c.script, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want %q", c.script, err, c.want)
		}
	}
}

// TestChaosLiveCountMatchesScan holds the generators' incremental live
// count to the rule it replaces: scanning every PE at each strike. The
// machines are small and repairs slow, so the last-live guard binds
// often, on single-PE and domain strikes alike.
func TestChaosLiveCountMatchesScan(t *testing.T) {
	for _, text := range []string{
		"chaos:mtbf=5:mttr=200@seed=1",
		"chaos:mtbf=3:mttr=500:crash@seed=2",
		"chaos:mtbf=7:mttr=300:until=9000:domain=rack:2@seed=3",
		"chaos:mtbf=4:mttr=400:crash:domain=block:2x2@seed=4",
	} {
		e := MustParse(text).Events[0]
		for _, numPEs := range []int{2, 3, 5, 16} {
			got, want := e.generate(numPEs, 20_000), scanTimeline(e, numPEs, 20_000)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s on %d PEs: %d events, the scan draws %d", text, numPEs, len(got), len(want))
			}
		}
	}
}

// scanTimeline draws a chaos generator's timeline with the live count
// taken by a scan of every PE per strike.
func scanTimeline(e Event, numPEs int, horizon sim.Time) []Event {
	rng := rand.New(rand.NewSource(e.Seed ^ chaosSeedSalt))
	kind := FailPE
	if e.Crash {
		kind = CrashPE
	}
	downUntil := make([]float64, numPEs)
	var out []Event
	for t := float64(e.At); ; {
		t += rng.ExpFloat64() * e.MTBF
		if sim.Time(t) >= e.end(horizon) {
			break
		}
		var members []int
		if e.Domain == "" {
			members = []int{rng.Intn(numPEs)}
		} else {
			members = e.domainMembers(rng.Intn(e.domainCount(numPEs)), numPEs)
		}
		repair := max(rng.ExpFloat64()*e.MTTR, 1)
		var strike []int
		for _, pe := range members {
			if downUntil[pe] <= t {
				strike = append(strike, pe)
			}
		}
		live := 0
		for _, du := range downUntil {
			if du <= t {
				live++
			}
		}
		if len(strike) == 0 || live <= len(strike) {
			continue
		}
		for _, pe := range strike {
			downUntil[pe] = t + repair
		}
		out = append(out,
			Event{At: sim.Time(t), Kind: kind, PEs: strike},
			Event{At: sim.Time(t + repair), Kind: RecoverPE, PEs: strike})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}
