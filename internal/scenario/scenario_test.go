package scenario

import (
	"reflect"
	"strings"
	"testing"

	"cwnsim/internal/metrics"
	"cwnsim/internal/sim"
)

// roundTripScripts are the text forms TestParseRoundTrip re-parses.
var roundTripScripts = []string{
	"fail:pes=25%@t=5000,recover@t=10000",
	"slow:pes=0+1:x=0.5@t=2000,restore:pes=0+1@t=4000",
	"degradelink:a=0:b=1:x=2@t=100,restorelink:a=0:b=1@t=300",
	"shock:x=3@t=1000,shock:x=1@t=2000",
	"fail:pes=3+7+9@t=50,recover:pes=3+7+9@t=90",
}

func TestParseRoundTrip(t *testing.T) {
	for _, in := range roundTripScripts {
		sc, err := Parse(in)
		if err != nil {
			t.Errorf("Parse(%q): %v", in, err)
			continue
		}
		out := sc.String()
		sc2, err := Parse(out)
		if err != nil {
			t.Errorf("re-Parse(%q): %v", out, err)
			continue
		}
		if sc2.String() != out {
			t.Errorf("Parse(%q) round-trips to %q then %q", in, out, sc2.String())
		}
	}
}

// FuzzParse feeds Parse arbitrary text: it must return an error, never
// panic, and every script it accepts must render (String) to text that
// parses back to an identical script. The seeds are the round-trip
// tests' scripts plus the fault-shard benchmark workload's form.
func FuzzParse(f *testing.F) {
	for _, s := range roundTripScripts {
		f.Add(s)
	}
	for _, s := range canonicalScripts {
		f.Add(s)
	}
	f.Add("chaos:mtbf=1500:mttr=400:crash:domain=block:32x32@seed=1,checkpoint:every=300:cost=1@t=0")
	f.Fuzz(func(t *testing.T, in string) {
		sc, err := Parse(in)
		if err != nil {
			return
		}
		out := sc.String()
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("Parse(%q) renders %q, which does not parse: %v", in, out, err)
		}
		if !reflect.DeepEqual(sc, again) {
			t.Fatalf("Parse(%q) = %+v renders %q, which parses to %+v", in, sc, out, again)
		}
	})
}

func TestParseKnownScript(t *testing.T) {
	sc, err := Parse("fail:pes=25%@t=5000,recover@t=10000")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(sc.Events))
	}
	f := sc.Events[0]
	if f.Kind != FailPE || f.At != 5000 || f.Frac != 0.25 || f.PEs != nil {
		t.Fatalf("fail event = %+v", f)
	}
	r := sc.Events[1]
	if r.Kind != RecoverPE || r.At != 10000 || r.PEs != nil || r.Frac != 0 {
		t.Fatalf("recover event = %+v", r)
	}
	if sc.DisruptAt() != 5000 || sc.RestoreAt() != 10000 {
		t.Fatalf("disrupt/restore = %d/%d", sc.DisruptAt(), sc.RestoreAt())
	}
	// droplink is shorthand for degradelink with x=0.
	dl := MustParse("droplink:a=2:b=3@t=7")
	if e := dl.Events[0]; e.Kind != DegradeLink || e.Factor != 0 || e.A != 2 || e.B != 3 {
		t.Fatalf("droplink event = %+v", e)
	}
}

func TestParseEmptyIsNil(t *testing.T) {
	for _, in := range []string{"", "   "} {
		sc, err := Parse(in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", in, err)
		}
		if sc != nil {
			t.Fatalf("Parse(%q) = %+v, want nil", in, sc)
		}
		if !sc.Empty() || sc.String() != "" || sc.Validate(16) != nil {
			t.Fatal("nil script is not fully inert")
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	bad := []string{
		"fail:pes=25%",              // no time
		"fail:pes=25%@5000",         // missing t=
		"warp:x=2@t=10",             // unknown kind
		"slow:pes=0@t=10",           // slow without factor
		"shock@t=10",                // shock without multiplier
		"degradelink:a=0:x=2@t=10",  // missing endpoint
		"fail:pes=120%@t=10",        // >100%
		"fail:pes=-1@t=10",          // negative PE
		"fail:pes=0@t=-5",           // negative time
		"slow:pes=0:x=half@t=10",    // non-numeric factor
		"fail:pes=0:weird=yes@t=10", // unknown key
		"fail:pes@t=10",             // key without value
		// Keys the kind's text form does not carry: FuzzParse found
		// "crash:pes=0:pes=1%@t=0" silently dropping its 1%.
		"crash:pes=0:pes=1%@t=0",
		"fail:pes=25%:pes=3@t=10",
		"fail:pes=0:x=2@t=10",
		"shock:pes=0:x=2@t=10",
		"restorelink:a=0:b=1:x=2@t=10",
		"ckpt:every=5:cost=1@t=10",
		"fail:pes=0:a=1@t=10",
		"chaos:mtbf=9:mttr=9:domain=block:2x2:domain=rack:4@seed=1",
		// Non-finite numbers.
		"shock:x=NaN@t=10",
		"slow:pes=0:x=+Inf@t=10",
		"fail:pes=NaN%@t=10",
		"chaos:mtbf=NaN:mttr=9@seed=1",
		"chaosx:mtbf=9:mttr=9@seed=1", // misspelled kind
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestTargetsFraction(t *testing.T) {
	ev := Event{Kind: FailPE, Frac: 0.25}
	got := ev.Targets(100)
	if len(got) != 25 || got[0] != 75 || got[24] != 99 {
		t.Fatalf("25%% of 100 PEs = %v", got)
	}
	// At least one target, capped at P, explicit list wins.
	if got := (Event{Frac: 0.001}).Targets(10); len(got) != 1 || got[0] != 9 {
		t.Fatalf("tiny fraction targets %v, want [9]", got)
	}
	if got := (Event{Frac: 1}).Targets(4); len(got) != 4 {
		t.Fatalf("100%% of 4 PEs targets %v", got)
	}
	if got := (Event{PEs: []int{2, 5}, Frac: 0.5}).Targets(100); len(got) != 2 {
		t.Fatalf("explicit list ignored: %v", got)
	}
	if got := (Event{Kind: RecoverPE}).Targets(8); got != nil {
		t.Fatalf("recover-all resolved targets %v, want nil", got)
	}
}

func TestValidate(t *testing.T) {
	nan := 0.0
	nan /= nan
	bad := []Script{
		{Events: []Event{{Kind: FailPE, PEs: []int{16}}}},                                                   // PE out of range
		{Events: []Event{{Kind: SlowPE, PEs: []int{0}, Factor: 0}}},                                         // zero speed
		{Events: []Event{{Kind: SlowPE, PEs: []int{0}, Factor: nan}}},                                       // NaN speed
		{Events: []Event{{Kind: FailPE}}},                                                                   // fail with no targets
		{Events: []Event{{Kind: DegradeLink, A: 1, B: 1, Factor: 2}}},                                       // self-link
		{Events: []Event{{Kind: DegradeLink, A: 0, B: 99, Factor: 2}}},                                      // endpoint out of range
		{Events: []Event{{Kind: LoadShock, Factor: 0}}},                                                     // zero rate
		{Events: []Event{{At: -1, Kind: RecoverPE}}},                                                        // negative time
		{Events: []Event{{Kind: FailPE, Frac: 1.5}}},                                                        // fraction > 1
		{Events: []Event{{Kind: FailPE, Frac: 1}}},                                                          // fails every PE
		{Events: []Event{{Kind: FailPE, PEs: []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}}}}, // explicit full cover
		{Events: []Event{{Kind: Kind(250), PEs: []int{0}}}},                                                 // unknown kind
		{Events: []Event{{Kind: SlowPE, PEs: []int{3}, Factor: -2}, {At: 900}}},                             // bad among good
	}
	for i, sc := range bad {
		if err := sc.Validate(16); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, sc.Events)
		}
	}
	ok := MustParse("fail:pes=25%@t=5,slow:pes=0:x=0.25@t=9,recover@t=20,restore@t=21,shock:x=0.5@t=30")
	if err := ok.Validate(16); err != nil {
		t.Fatalf("Validate rejected a good script: %v", err)
	}
}

func TestBlackoutHelper(t *testing.T) {
	sc := Blackout(0.25, 5000, 10000)
	if err := sc.Validate(100); err != nil {
		t.Fatal(err)
	}
	if sc.String() != "fail:pes=25%@t=5000,recover@t=10000" {
		t.Fatalf("Blackout renders %q", sc.String())
	}
}

func TestSortedIsStable(t *testing.T) {
	sc := Script{Events: []Event{
		{At: 10, Kind: RecoverPE},
		{At: 5, Kind: FailPE, Frac: 0.5},
		{At: 10, Kind: LoadShock, Factor: 2},
	}}
	got := sc.Sorted()
	if got[0].Kind != FailPE || got[1].Kind != RecoverPE || got[2].Kind != LoadShock {
		t.Fatalf("Sorted order wrong: %v", got)
	}
	if sc.Events[0].Kind != RecoverPE {
		t.Fatal("Sorted mutated the script")
	}
}

// series builds a windowed-p99 series from (t, v) pairs.
func series(pts ...float64) metrics.Series {
	var s metrics.Series
	for i := 0; i+1 < len(pts); i += 2 {
		s.Add(pts[i], pts[i+1])
	}
	return s
}

func TestAnalyzeRecovery(t *testing.T) {
	sc := Blackout(0.25, 100, 200)

	// Healthy baseline 100, spike during the blackout, settles after.
	rec := AnalyzeRecovery(sc, series(
		50, 90, 80, 110, 120, 500, 180, 900, 220, 600, 260, 150, 300, 120, 340, 110,
	), 7, 2, AnalyzeConfig{})
	if rec.DisruptAt != 100 || rec.RestoreAt != 200 {
		t.Fatalf("disrupt/restore = %d/%d", rec.DisruptAt, rec.RestoreAt)
	}
	if rec.BaselineP99 != 90 && rec.BaselineP99 != 110 {
		t.Fatalf("baseline = %f, want a pre-disruption median", rec.BaselineP99)
	}
	if rec.PeakP99 != 900 {
		t.Fatalf("peak = %f, want 900", rec.PeakP99)
	}
	if !rec.Recovered() || rec.SteadyAgainAt != 260 || rec.TimeToSteady != 60 {
		t.Fatalf("steady = %d (+%d), want 260 (+60)", rec.SteadyAgainAt, rec.TimeToSteady)
	}
	if rec.GoalsRequeued != 7 || rec.ServiceAborts != 2 {
		t.Fatalf("requeued/aborts = %d/%d", rec.GoalsRequeued, rec.ServiceAborts)
	}
	if s := rec.String(); !strings.Contains(s, "steady again") || !strings.Contains(s, "7 goals requeued") {
		t.Fatalf("summary %q", s)
	}

	// Never settles: the tail stays above 2x baseline.
	never := AnalyzeRecovery(sc, series(50, 100, 260, 900, 300, 800, 340, 700), 0, 0, AnalyzeConfig{})
	if never.Recovered() || never.SteadyAgainAt != sim.Never || never.TimeToSteady != sim.Never {
		t.Fatalf("never-settling run reported recovery: %+v", never)
	}
	if !strings.Contains(never.String(), "never settled") {
		t.Fatalf("summary %q", never.String())
	}

	// A dip back into the band that blows up again is not recovery.
	relapse := AnalyzeRecovery(sc, series(50, 100, 260, 120, 300, 110, 340, 900), 0, 0, AnalyzeConfig{})
	if relapse.Recovered() {
		t.Fatalf("relapsing run reported recovery at %d", relapse.SteadyAgainAt)
	}

	// A single in-band final window is not confirmation (Consecutive=2).
	thin := AnalyzeRecovery(sc, series(50, 100, 260, 900, 300, 120), 0, 0, AnalyzeConfig{})
	if thin.Recovered() {
		t.Fatal("one in-band window confirmed recovery")
	}

	// No pre-disruption window: baseline unknown, nothing to measure.
	blind := AnalyzeRecovery(sc, series(260, 500, 300, 400), 0, 0, AnalyzeConfig{})
	if !isNaN(blind.BaselineP99) || blind.Recovered() {
		t.Fatalf("baseline-less analysis = %+v", blind)
	}

	// Empty script: inert report.
	empty := AnalyzeRecovery(nil, series(1, 2), 0, 0, AnalyzeConfig{})
	if empty.DisruptAt != sim.Never || empty.Recovered() {
		t.Fatalf("empty-script analysis = %+v", empty)
	}
}

func isNaN(f float64) bool { return f != f }
