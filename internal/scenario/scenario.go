package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"cwnsim/internal/sim"
)

// Kind discriminates perturbation events.
type Kind uint8

const (
	// SlowPE sets the targets' service speed to Factor × nominal (0.5 =
	// half speed). The setting is absolute, not compounding: a second
	// slow event replaces the first rather than stacking on it.
	// In-flight service rescales proportionally.
	SlowPE Kind = iota
	// RestorePE returns the targets to their nominal speed.
	RestorePE
	// FailPE blacks out the targets' compute: service stops, queued and
	// arriving goals are evacuated to the nearest live PE, responses and
	// pending tasks freeze in place.
	FailPE
	// RecoverPE brings failed (or crashed) targets back; work frozen by
	// a blackout resumes — a crashed PE comes back empty.
	RecoverPE
	// CrashPE is the state-loss failure: the targets' queued and
	// in-flight goals, queued responses and pending tasks are destroyed
	// (not evacuated). Every job that lost state is aborted — its
	// surviving goals machine-wide are discarded — and retried from its
	// root, keeping its original injection time. RecoverPE brings a
	// crashed PE back.
	CrashPE
	// Chaos is a random-failure generator, not a concrete perturbation:
	// at machine construction it expands (Script.Expand) into a
	// deterministic timeline of failures and recoveries drawn from a
	// salted stream of its Seed — exponential inter-failure gaps with
	// mean MTBF and repair times with mean MTTR, over uniformly chosen
	// failure domains (Domain; a domain of one PE by default),
	// crash-mode when Crash is set. Same seed, machine size and horizon
	// give the identical timeline.
	Chaos
	// DegradeLink multiplies the occupancy time of every channel between
	// A and B by Factor; Factor 0 takes the link down entirely. The
	// scripted state is absolute: a positive factor on a downed link
	// brings it back up degraded, flushing messages held meanwhile.
	DegradeLink
	// RestoreLink returns the channels between A and B to nominal,
	// flushing any messages held during an outage.
	RestoreLink
	// LoadShock multiplies the arrival process's offered rate by Factor
	// for subsequently drawn inter-arrival gaps (1 restores nominal).
	LoadShock
	// Checkpoint is a generator like Chaos, not a concrete perturbation:
	// Script.Expand resolves it into CheckpointTick events every Every
	// units of virtual time, from At+Every until the horizon (or Until).
	// Each tick makes the machine's pending-task state as of the tick
	// durable, at Cost service time per live PE, so a crash retry
	// resumes from the last tick's subtree frontier instead of the root.
	Checkpoint
	// CheckpointTick is one concrete periodic snapshot: every live PE
	// pays Cost service time (a busy PE's in-flight service extends by
	// Cost; an idle PE pays it at its next service start), and jobs'
	// execution progress as of the tick becomes the durable frontier
	// crash retries resume from.
	CheckpointTick
)

func (k Kind) String() string {
	switch k {
	case SlowPE:
		return "slow"
	case RestorePE:
		return "restore"
	case FailPE:
		return "fail"
	case RecoverPE:
		return "recover"
	case CrashPE:
		return "crash"
	case Chaos:
		return "chaos"
	case DegradeLink:
		return "degradelink"
	case RestoreLink:
		return "restorelink"
	case LoadShock:
		return "shock"
	case Checkpoint:
		return "checkpoint"
	case CheckpointTick:
		return "ckpt"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scripted perturbation, firing at virtual time At.
type Event struct {
	At   sim.Time `json:"at"`
	Kind Kind     `json:"kind"`

	// PEs are explicit target PEs for the PE kinds. When nil, Frac
	// selects targets instead; for RestorePE/RecoverPE, nil-and-zero
	// means "every slowed/failed PE".
	PEs []int `json:"pes,omitempty"`
	// Frac selects round(Frac×P) targets when PEs is nil — the
	// highest-numbered PEs, a deterministic choice that spares the
	// injection PE (RootPE defaults to 0) until Frac reaches 1.
	Frac float64 `json:"frac,omitempty"`

	// Factor is the SlowPE speed multiplier, the DegradeLink occupancy
	// multiplier (0 = outage), or the LoadShock rate multiplier.
	Factor float64 `json:"factor,omitempty"`

	// A and B are the link endpoints for DegradeLink/RestoreLink; every
	// channel connecting them is affected.
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`

	// Chaos generator parameters (Kind Chaos only). MTBF and MTTR are
	// the mean time between failures and mean time to repair of the
	// exponential processes; Seed salts the dedicated generator stream;
	// Until bounds the generated timeline (0 = the run's horizon);
	// Crash selects crash-with-state-loss failures instead of
	// blackouts.
	MTBF  float64  `json:"mtbf,omitempty"`
	MTTR  float64  `json:"mttr,omitempty"`
	Seed  int64    `json:"seed,omitempty"`
	Until sim.Time `json:"until,omitempty"`
	Crash bool     `json:"crash,omitempty"`

	// Domain shapes chaos draws into correlated failure domains instead
	// of single uniform PEs: "rack" strikes a contiguous block of DomA
	// consecutive PE indices; "block" strikes a DomA×DomB axis-aligned
	// tile of the row-major √P×√P grid. Empty means uncorrelated draws,
	// each striking a domain of one PE.
	Domain string `json:"domain,omitempty"`
	DomA   int    `json:"doma,omitempty"`
	DomB   int    `json:"domb,omitempty"`

	// Checkpoint generator parameters (Kind Checkpoint; Cost is shared
	// with the concrete CheckpointTick). Every is the snapshot period;
	// Cost the service time every live PE pays per tick; Until bounds
	// the tick timeline (0 = the run's horizon).
	Every sim.Time `json:"every,omitempty"`
	Cost  sim.Time `json:"cost,omitempty"`
}

// String renders the event in the parseable text form.
func (e Event) String() string {
	if e.Kind == Chaos {
		var b strings.Builder
		fmt.Fprintf(&b, "chaos:mtbf=%g:mttr=%g", e.MTBF, e.MTTR)
		if e.Until > 0 {
			fmt.Fprintf(&b, ":until=%d", e.Until)
		}
		if e.Crash {
			b.WriteString(":crash")
		}
		switch e.Domain {
		case "rack":
			fmt.Fprintf(&b, ":domain=rack:%d", e.DomA)
		case "block":
			fmt.Fprintf(&b, ":domain=block:%dx%d", e.DomA, e.DomB)
		}
		fmt.Fprintf(&b, "@seed=%d", e.Seed)
		return b.String()
	}
	if e.Kind == Checkpoint {
		var b strings.Builder
		fmt.Fprintf(&b, "checkpoint:every=%d:cost=%d", e.Every, e.Cost)
		if e.Until > 0 {
			fmt.Fprintf(&b, ":until=%d", e.Until)
		}
		fmt.Fprintf(&b, "@t=%d", e.At)
		return b.String()
	}
	var b strings.Builder
	b.WriteString(e.Kind.String())
	switch e.Kind {
	case SlowPE, RestorePE, FailPE, RecoverPE, CrashPE:
		if e.PEs != nil {
			ids := make([]string, len(e.PEs))
			for i, pe := range e.PEs {
				ids[i] = fmt.Sprintf("%d", pe)
			}
			fmt.Fprintf(&b, ":pes=%s", strings.Join(ids, "+"))
		} else if e.Frac > 0 {
			fmt.Fprintf(&b, ":pes=%g%%", 100*e.Frac)
		}
		if e.Kind == SlowPE {
			fmt.Fprintf(&b, ":x=%g", e.Factor)
		}
	case DegradeLink:
		fmt.Fprintf(&b, ":a=%d:b=%d:x=%g", e.A, e.B, e.Factor)
	case RestoreLink:
		fmt.Fprintf(&b, ":a=%d:b=%d", e.A, e.B)
	case LoadShock:
		fmt.Fprintf(&b, ":x=%g", e.Factor)
	case CheckpointTick:
		fmt.Fprintf(&b, ":cost=%d", e.Cost)
	}
	fmt.Fprintf(&b, "@t=%d", e.At)
	return b.String()
}

// Targets resolves the event's PE targets on a machine of numPEs
// processors: the explicit list when given, otherwise the round(Frac×P)
// highest-numbered PEs (at least one when Frac > 0). Nil when the event
// names no targets (restore/recover-all).
func (e Event) Targets(numPEs int) []int {
	if e.PEs != nil {
		return e.PEs
	}
	if e.Frac <= 0 {
		return nil
	}
	k := e.FracCount(numPEs)
	out := make([]int, k)
	for i := range out {
		out[i] = numPEs - k + i
	}
	return out
}

// FracCount is how many PEs a fraction-targeted event strikes on a
// machine of numPEs processors: round(Frac×P), at least one. They are
// the FracCount highest-numbered PEs (see Targets).
func (e Event) FracCount(numPEs int) int {
	return min(max(int(math.Round(e.Frac*float64(numPEs))), 1), numPEs)
}

// Script is a deterministic timeline of perturbation events. The zero
// value (and nil) is the empty scenario: nothing is scheduled and a run
// is bit-for-bit identical to one without a script.
type Script struct {
	Events []Event `json:"events"`
}

// Empty reports whether the script schedules nothing.
func (s *Script) Empty() bool { return s == nil || len(s.Events) == 0 }

// String renders the script in the parseable comma-separated text form.
func (s *Script) String() string {
	if s.Empty() {
		return ""
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return strings.Join(parts, ",")
}

// Sorted returns the events in firing order (stable by At, preserving
// script order among same-time events).
func (s *Script) Sorted() []Event {
	if s.Empty() {
		return nil
	}
	out := make([]Event, len(s.Events))
	copy(out, s.Events)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// DisruptAt returns the time of the first event — where the environment
// first shifts (Never for an empty script).
func (s *Script) DisruptAt() sim.Time {
	if s.Empty() {
		return sim.Never
	}
	t := s.Events[0].At
	for _, e := range s.Events[1:] {
		if e.At < t {
			t = e.At
		}
	}
	return t
}

// RestoreAt returns the time of the last event — after which the
// environment holds steady and recovery can be measured (Never for an
// empty script).
func (s *Script) RestoreAt() sim.Time {
	if s.Empty() {
		return sim.Never
	}
	t := s.Events[0].At
	for _, e := range s.Events[1:] {
		if e.At > t {
			t = e.At
		}
	}
	return t
}

// Validate checks the script against a machine of numPEs processors,
// returning a descriptive error for events that could not apply: PE
// indices out of range, fractions outside (0,1], non-finite or negative
// factors, zero/negative speed multipliers, link endpoints equal,
// negative times, or a chaos mtbf under one time unit. How many events
// a generator expands to depends on the run's horizon, which
// CheckExpansion takes. Link adjacency is checked by
// machine.Config.ValidateLinks (the machine owns the topology).
func (s *Script) Validate(numPEs int) error {
	if s.Empty() {
		return nil
	}
	finite := func(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
	for i, e := range s.Events {
		if e.At < 0 {
			return fmt.Errorf("scenario: event %d (%s): negative time %d", i, e.Kind, e.At)
		}
		switch e.Kind {
		case SlowPE, RestorePE, FailPE, RecoverPE, CrashPE:
			for _, pe := range e.PEs {
				if pe < 0 || pe >= numPEs {
					return fmt.Errorf("scenario: event %d (%s): PE %d out of range [0,%d)", i, e.Kind, pe, numPEs)
				}
			}
			if e.PEs == nil && e.Frac != 0 && (e.Frac < 0 || e.Frac > 1 || !finite(e.Frac)) {
				return fmt.Errorf("scenario: event %d (%s): fraction %g outside (0,1]", i, e.Kind, e.Frac)
			}
			if e.PEs == nil && e.Frac == 0 && (e.Kind == SlowPE || e.Kind == FailPE || e.Kind == CrashPE) {
				return fmt.Errorf("scenario: event %d (%s): no targets (need pes=... or a fraction)", i, e.Kind)
			}
			if e.Kind == FailPE || e.Kind == CrashPE {
				// A single event whose targets cover the whole machine is
				// guaranteed to die at apply time (the machine keeps one
				// PE live); reject it before any simulation time is
				// spent. Cumulative whole-machine failure across several
				// events depends on the recovers in between and on the
				// run's horizon, so machine.Config.Validate refuses it.
				// A fraction's targets are distinct and a list may repeat
				// PEs; neither count costs memory in the machine size.
				n := e.FracCount(numPEs)
				if e.PEs != nil {
					distinct := make(map[int]struct{}, len(e.PEs))
					for _, pe := range e.PEs {
						distinct[pe] = struct{}{}
					}
					n = len(distinct)
				}
				if n >= numPEs {
					return fmt.Errorf("scenario: event %d (%s): targets every PE — the machine needs at least one live PE", i, e.Kind)
				}
			}
			if e.Kind == SlowPE && (!finite(e.Factor) || e.Factor <= 0) {
				return fmt.Errorf("scenario: event %d (slow): speed factor %g must be finite and > 0", i, e.Factor)
			}
		case DegradeLink, RestoreLink:
			if e.A < 0 || e.A >= numPEs || e.B < 0 || e.B >= numPEs {
				return fmt.Errorf("scenario: event %d (%s): endpoints %d-%d out of range [0,%d)", i, e.Kind, e.A, e.B, numPEs)
			}
			if e.A == e.B {
				return fmt.Errorf("scenario: event %d (%s): link endpoints coincide (%d)", i, e.Kind, e.A)
			}
			if e.Kind == DegradeLink && (!finite(e.Factor) || e.Factor < 0) {
				return fmt.Errorf("scenario: event %d (degradelink): factor %g must be finite and >= 0", i, e.Factor)
			}
		case LoadShock:
			if !finite(e.Factor) || e.Factor <= 0 {
				return fmt.Errorf("scenario: event %d (shock): rate multiplier %g must be finite and > 0", i, e.Factor)
			}
		case Chaos:
			if !finite(e.MTBF) || e.MTBF < 1 {
				return fmt.Errorf("scenario: event %d (chaos): mtbf %g must be finite and at least one time unit", i, e.MTBF)
			}
			if !finite(e.MTTR) || e.MTTR <= 0 {
				return fmt.Errorf("scenario: event %d (chaos): mttr %g must be finite and > 0", i, e.MTTR)
			}
			if e.Until < 0 {
				return fmt.Errorf("scenario: event %d (chaos): negative until %d", i, e.Until)
			}
			switch e.Domain {
			case "":
			case "rack":
				if e.DomA < 1 {
					return fmt.Errorf("scenario: event %d (chaos): rack domain size %d must be >= 1", i, e.DomA)
				}
			case "block":
				if e.DomA < 1 || e.DomB < 1 {
					return fmt.Errorf("scenario: event %d (chaos): block domain %dx%d must have positive sides", i, e.DomA, e.DomB)
				}
			default:
				return fmt.Errorf("scenario: event %d (chaos): unknown domain shape %q (want rack or block)", i, e.Domain)
			}
		case Checkpoint:
			if e.Every < 1 {
				return fmt.Errorf("scenario: event %d (checkpoint): period %d must be >= 1", i, e.Every)
			}
			if e.Cost < 0 {
				return fmt.Errorf("scenario: event %d (checkpoint): negative cost %d", i, e.Cost)
			}
			if e.Until < 0 {
				return fmt.Errorf("scenario: event %d (checkpoint): negative until %d", i, e.Until)
			}
		case CheckpointTick:
			if e.Cost < 0 {
				return fmt.Errorf("scenario: event %d (ckpt): negative cost %d", i, e.Cost)
			}
		default:
			return fmt.Errorf("scenario: event %d: unknown kind %d", i, int(e.Kind))
		}
	}
	return nil
}

// Blackout returns the acceptance scenario: fail frac of the PEs at
// failAt and recover them at recoverAt.
func Blackout(frac float64, failAt, recoverAt sim.Time) *Script {
	return &Script{Events: []Event{
		{At: failAt, Kind: FailPE, Frac: frac},
		{At: recoverAt, Kind: RecoverPE},
	}}
}
