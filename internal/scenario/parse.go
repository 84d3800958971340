package scenario

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"cwnsim/internal/sim"
)

// Parse reads the compact text form of a script: comma-separated
// events, each `kind[:key=value...]@t=TIME`.
//
//	fail:pes=25%@t=5000,recover@t=10000
//	crash:pes=25%@t=5000,recover@t=10000
//	slow:pes=0+1:x=0.5@t=2000,restore@t=4000
//	degradelink:a=0:b=1:x=0@t=100,restorelink:a=0:b=1@t=300
//	shock:x=3@t=1000,shock:x=1@t=2000
//	chaos:mtbf=3000:mttr=800@seed=7
//	chaos:mtbf=3000:mttr=800:domain=rack:8@seed=7
//	checkpoint:every=2000:cost=5@t=0
//
// Keys: pes= targets a percentage ("25%") or a +-separated PE list
// ("3+7+9"); x= the factor (speed multiplier for slow, occupancy
// multiplier for degradelink with 0 meaning outage, rate multiplier
// for shock); a=/b= the link endpoints. droplink is shorthand for
// degradelink with x=0. crash is the state-loss failure (fail is the
// evacuating blackout). chaos is the random-failure generator: it
// takes mtbf= and mttr= (means of the exponential failure and repair
// processes), optional until= (timeline bound; default the run
// horizon), a bare crash flag for crash-mode failures, and an optional
// domain=rack:N or domain=block:AxB shape for correlated strikes; it
// ends with @seed=N instead of @t=N — the generator's own seed,
// expanded into a concrete deterministic timeline at machine
// construction. checkpoint is the periodic-snapshot generator: it
// takes every= (snapshot period), cost= (service time each live PE
// pays per tick, default 0) and optional until=; ckpt:cost=C is the
// concrete single snapshot it expands into. Each kind takes only the
// keys its String form renders, so every script Parse accepts renders
// back to text that parses to the same script. An empty string parses
// to nil — the empty scenario.
func Parse(s string) (*Script, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var sc Script
	for _, part := range strings.Split(s, ",") {
		ev, err := parseEvent(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		sc.Events = append(sc.Events, ev)
	}
	return &sc, nil
}

// MustParse is Parse for trusted literals; it panics on error.
func MustParse(s string) *Script {
	sc, err := Parse(s)
	if err != nil {
		panic(err.Error())
	}
	return sc
}

func parseEvent(s string) (Event, error) {
	body, at, ok := strings.Cut(s, "@")
	if !ok {
		return Event{}, fmt.Errorf("scenario: event %q has no @t=TIME", s)
	}
	if kind, _, _ := strings.Cut(body, ":"); kind == "chaos" {
		return parseChaos(s, body, at)
	}
	tStr, ok := strings.CutPrefix(at, "t=")
	if !ok {
		return Event{}, fmt.Errorf("scenario: event %q: want @t=TIME, got %q", s, at)
	}
	t, err := strconv.ParseInt(tStr, 10, 64)
	if err != nil || t < 0 {
		return Event{}, fmt.Errorf("scenario: event %q: bad time %q", s, tStr)
	}

	fields := strings.Split(body, ":")
	ev := Event{At: sim.Time(t), A: -1, B: -1}
	switch fields[0] {
	case "slow":
		ev.Kind = SlowPE
	case "restore":
		ev.Kind = RestorePE
	case "fail":
		ev.Kind = FailPE
	case "recover":
		ev.Kind = RecoverPE
	case "crash":
		ev.Kind = CrashPE
	case "degradelink", "droplink":
		ev.Kind = DegradeLink
	case "restorelink", "fixlink":
		ev.Kind = RestoreLink
	case "shock":
		ev.Kind = LoadShock
	case "checkpoint":
		ev.Kind = Checkpoint
	case "ckpt":
		ev.Kind = CheckpointTick
	default:
		return Event{}, fmt.Errorf("scenario: unknown event kind %q in %q", fields[0], s)
	}

	var haveFactor, haveEvery bool
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Event{}, fmt.Errorf("scenario: event %q: want key=value, got %q", s, f)
		}
		switch key {
		case "pes":
			if err := parseTargets(&ev, val); err != nil {
				return Event{}, fmt.Errorf("scenario: event %q: %v", s, err)
			}
		case "x":
			x, ok := parseFinite(val)
			if !ok {
				return Event{}, fmt.Errorf("scenario: event %q: bad factor %q", s, val)
			}
			ev.Factor = x
			haveFactor = true
		case "a", "b":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Event{}, fmt.Errorf("scenario: event %q: bad endpoint %s=%q", s, key, val)
			}
			if key == "a" {
				ev.A = n
			} else {
				ev.B = n
			}
		case "every", "cost", "until":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return Event{}, fmt.Errorf("scenario: event %q: bad %s %q", s, key, val)
			}
			switch key {
			case "every":
				ev.Every, haveEvery = sim.Time(n), true
			case "cost":
				ev.Cost = sim.Time(n)
			case "until":
				ev.Until = sim.Time(n)
			}
		default:
			return Event{}, fmt.Errorf("scenario: event %q: unknown key %q", s, key)
		}
		if !takesKey(ev.Kind, key) {
			return Event{}, fmt.Errorf("scenario: event %q: %s takes no %s= key", s, fields[0], key)
		}
	}

	switch ev.Kind {
	case SlowPE:
		if !haveFactor {
			return Event{}, fmt.Errorf("scenario: event %q: slow needs x=FACTOR", s)
		}
	case LoadShock:
		if !haveFactor {
			return Event{}, fmt.Errorf("scenario: event %q: shock needs x=MULTIPLIER", s)
		}
	case DegradeLink, RestoreLink:
		if ev.A < 0 || ev.B < 0 {
			return Event{}, fmt.Errorf("scenario: event %q: link events need a= and b=", s)
		}
	case Checkpoint:
		if !haveEvery {
			return Event{}, fmt.Errorf("scenario: event %q: checkpoint needs every=PERIOD", s)
		}
	}
	if ev.Kind != DegradeLink && ev.Kind != RestoreLink {
		ev.A, ev.B = 0, 0 // only link events carry endpoints
	}
	return ev, nil
}

// takesKey reports whether events of kind k carry key: exactly the keys
// Event.String renders for k.
func takesKey(k Kind, key string) bool {
	switch key {
	case "pes":
		return k == SlowPE || k == RestorePE || k == FailPE || k == RecoverPE || k == CrashPE
	case "x":
		return k == SlowPE || k == DegradeLink || k == LoadShock
	case "a", "b":
		return k == DegradeLink || k == RestoreLink
	case "cost":
		return k == Checkpoint || k == CheckpointTick
	default: // every, until
		return k == Checkpoint
	}
}

// parseFinite parses a finite float: no factor, mtbf or mttr may be
// NaN or infinite.
func parseFinite(val string) (float64, bool) {
	x, err := strconv.ParseFloat(val, 64)
	return x, err == nil && !math.IsNaN(x) && !math.IsInf(x, 0)
}

// parseChaos reads a chaos generator event: `chaos:mtbf=M:mttr=R
// [:until=T][:crash][:domain=rack:N|:domain=block:AxB]@seed=S`. Unlike
// concrete events it is keyed by its generator seed, not a firing time
// (the timeline starts at t=0 and is drawn at machine construction).
// The domain size spec follows its key as the next ":"-field, so the
// loop is index-based.
func parseChaos(s, body, at string) (Event, error) {
	seedStr, ok := strings.CutPrefix(at, "seed=")
	if !ok {
		return Event{}, fmt.Errorf("scenario: chaos event %q: want @seed=N, got %q", s, at)
	}
	seed, err := strconv.ParseInt(seedStr, 10, 64)
	if err != nil {
		return Event{}, fmt.Errorf("scenario: chaos event %q: bad seed %q", s, seedStr)
	}
	ev := Event{Kind: Chaos, Seed: seed}
	var haveMTBF, haveMTTR bool
	fields := strings.Split(body, ":")[1:]
	for i := 0; i < len(fields); i++ {
		f := fields[i]
		if f == "crash" {
			ev.Crash = true
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Event{}, fmt.Errorf("scenario: chaos event %q: want key=value, got %q", s, f)
		}
		switch key {
		case "domain":
			if ev.Domain != "" {
				return Event{}, fmt.Errorf("scenario: chaos event %q: domain given twice", s)
			}
			i++
			if i >= len(fields) {
				return Event{}, fmt.Errorf("scenario: chaos event %q: domain=%s needs a size (rack:N or block:AxB)", s, val)
			}
			spec := fields[i]
			switch val {
			case "rack":
				n, err := strconv.Atoi(spec)
				if err != nil || n < 1 {
					return Event{}, fmt.Errorf("scenario: chaos event %q: bad rack size %q", s, spec)
				}
				ev.Domain, ev.DomA = "rack", n
			case "block":
				aStr, bStr, ok := strings.Cut(spec, "x")
				a, errA := strconv.Atoi(aStr)
				b, errB := strconv.Atoi(bStr)
				if !ok || errA != nil || errB != nil || a < 1 || b < 1 {
					return Event{}, fmt.Errorf("scenario: chaos event %q: bad block size %q (want AxB)", s, spec)
				}
				ev.Domain, ev.DomA, ev.DomB = "block", a, b
			default:
				return Event{}, fmt.Errorf("scenario: chaos event %q: unknown domain shape %q (want rack or block)", s, val)
			}
			continue
		}
		switch key {
		case "mtbf", "mttr":
			x, ok := parseFinite(val)
			if !ok {
				return Event{}, fmt.Errorf("scenario: chaos event %q: bad %s %q", s, key, val)
			}
			if key == "mtbf" {
				ev.MTBF, haveMTBF = x, true
			} else {
				ev.MTTR, haveMTTR = x, true
			}
		case "until":
			t, err := strconv.ParseInt(val, 10, 64)
			if err != nil || t < 0 {
				return Event{}, fmt.Errorf("scenario: chaos event %q: bad until %q", s, val)
			}
			ev.Until = sim.Time(t)
		default:
			return Event{}, fmt.Errorf("scenario: chaos event %q: unknown key %q", s, key)
		}
	}
	if !haveMTBF || !haveMTTR {
		return Event{}, fmt.Errorf("scenario: chaos event %q: needs mtbf= and mttr=", s)
	}
	return ev, nil
}

// parseTargets fills PEs or Frac from a pes= value: "25%" or "3+7+9".
func parseTargets(ev *Event, val string) error {
	if ev.PEs != nil || ev.Frac != 0 {
		return fmt.Errorf("pes= given twice")
	}
	if pct, ok := strings.CutSuffix(val, "%"); ok {
		f, err := strconv.ParseFloat(pct, 64)
		if err != nil || !(f > 0 && f <= 100) {
			return fmt.Errorf("bad percentage %q", val)
		}
		ev.Frac = f / 100
		return nil
	}
	for _, id := range strings.Split(val, "+") {
		n, err := strconv.Atoi(id)
		if err != nil || n < 0 {
			return fmt.Errorf("bad PE id %q", id)
		}
		ev.PEs = append(ev.PEs, n)
	}
	return nil
}
