package scenario

import (
	"fmt"
	"math/rand"
	"sort"

	"cwnsim/internal/sim"
)

// chaosSeedSalt decorrelates the chaos generator's stream from the
// run's engine, arrival and observer streams (which salt the same user
// seed): availability sweeps can share one seed across all four
// processes without the failure timeline echoing the arrival timeline.
const chaosSeedSalt int64 = 0x5E3779B97F4A7C15

// Expand resolves the script's generator events — Chaos into concrete
// failure/recovery timelines, Checkpoint into periodic CheckpointTick
// events — on a machine of numPEs processors with measurement horizon
// `horizon`, leaving every other event untouched. A script with no
// generator events is returned as-is (same pointer — the empty scenario
// stays free). Expansion is a pure function of (generator parameters,
// numPEs, horizon): the same seed always yields the identical timeline,
// pinned by regression test.
func (s *Script) Expand(numPEs int, horizon sim.Time) *Script {
	if s.Empty() {
		return s
	}
	any := false
	for _, e := range s.Events {
		if e.Kind == Chaos || e.Kind == Checkpoint {
			any = true
			break
		}
	}
	if !any {
		return s
	}
	out := &Script{Events: make([]Event, 0, len(s.Events))}
	for _, e := range s.Events {
		switch e.Kind {
		case Chaos:
			out.Events = append(out.Events, e.generate(numPEs, horizon)...)
		case Checkpoint:
			out.Events = append(out.Events, e.ticks(horizon)...)
		default:
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// MaxGenerated caps how many draws one generator may expand to on a
// run: a chaos generator's expected strike count, (end − at)/mtbf, and
// a checkpoint generator's tick count, (end − at)/every, where end is
// its until or the run's horizon, whichever comes first. Expansion
// holds every generated event at once, so the cap bounds its memory: a
// chaos strike is two events. At the default horizon of 2,000,000
// units it admits an mtbf or a checkpoint period of 2 units or more.
const MaxGenerated = 1 << 20

// CheckExpansion refuses a generator of a validated script that would
// expand past MaxGenerated draws on a run of the given horizon, naming
// the field. machine.Config.Validate applies it after Validate and
// before anything expands the script.
func (s *Script) CheckExpansion(horizon sim.Time) error {
	if s.Empty() {
		return nil
	}
	for i, e := range s.Events {
		span := float64(e.end(horizon) - e.At)
		switch e.Kind {
		case Chaos:
			if n := span / e.MTBF; n > MaxGenerated {
				return fmt.Errorf("scenario: event %d (chaos): mtbf %g expects %.0f strikes by t=%d, more than %d", i, e.MTBF, n, e.end(horizon), MaxGenerated)
			}
		case Checkpoint:
			if n := span / float64(e.Every); n > MaxGenerated {
				return fmt.Errorf("scenario: event %d (checkpoint): every %d makes %.0f ticks by t=%d, more than %d", i, e.Every, n, e.end(horizon), MaxGenerated)
			}
		}
	}
	return nil
}

// end is when a generator stops drawing: its Until, or the horizon
// when Until is unset or later.
func (e Event) end(horizon sim.Time) sim.Time {
	if e.Until <= 0 || e.Until > horizon {
		return horizon
	}
	return e.Until
}

// ticks expands a Checkpoint generator into its concrete periodic
// CheckpointTick events: one every Every units of virtual time starting
// at At+Every, up to (exclusive) Until or the horizon.
func (e Event) ticks(horizon sim.Time) []Event {
	until := e.end(horizon)
	var out []Event
	for at := e.At + e.Every; at < until; at += e.Every {
		out = append(out, Event{At: at, Kind: CheckpointTick, Cost: e.Cost})
	}
	return out
}

// downHeap is a min-heap of the recovery instants of the PEs a chaos
// generator holds down, one entry per such PE, so a strike learns the
// live count in O(log P) instead of scanning every PE.
type downHeap []float64

// push records a PE down until t.
func (h *downHeap) push(t float64) {
	s := append(*h, t)
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*h = s
}

// recoverBy drops every PE whose recovery instant is at or before t:
// those are live again. What remains is exactly the PEs down at t.
func (h *downHeap) recoverBy(t float64) {
	s := *h
	for len(s) > 0 && s[0] <= t {
		n := len(s) - 1
		s[0] = s[n]
		s = s[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && s[c+1] < s[c] {
				c++
			}
			if s[i] <= s[c] {
				break
			}
			s[i], s[c] = s[c], s[i]
			i = c
		}
	}
	*h = s
}

// generate draws one chaos event's concrete timeline: failure instants
// arrive as a Poisson process (exponential gaps, mean MTBF) starting at
// the event's At, each striking a uniformly chosen failure domain (see
// domainMembers; without a Domain, a domain of one PE) and taking down
// every member of it that is currently up, all sharing one exponential
// repair time (mean MTTR, floor one unit: the whole blast radius comes
// back together). A strike whose domain is entirely down is absorbed,
// and one that would leave no live PE is skipped — the machine refuses
// to lose its final processor. Both consume their draws, keeping the
// stream aligned with the draw count.
func (e Event) generate(numPEs int, horizon sim.Time) []Event {
	rng := rand.New(rand.NewSource(e.Seed ^ chaosSeedSalt))
	until := e.end(horizon)
	failKind := FailPE
	if e.Crash {
		failKind = CrashPE
	}
	numDomains := e.domainCount(numPEs)
	downUntil := make([]float64, numPEs)
	var down downHeap
	var out []Event
	t := float64(e.At)
	for {
		t += rng.ExpFloat64() * e.MTBF
		at := sim.Time(t)
		if at >= until {
			break
		}
		d := rng.Intn(numDomains)
		repair := rng.ExpFloat64() * e.MTTR
		if repair < 1 {
			repair = 1
		}
		var strike []int
		for _, pe := range e.domainMembers(d, numPEs) {
			if downUntil[pe] <= t {
				strike = append(strike, pe)
			}
		}
		if len(strike) == 0 {
			continue // domain already entirely down: absorbed
		}
		down.recoverBy(t)
		if numPEs-len(down) <= len(strike) {
			continue // never take the last live PEs down
		}
		rec := t + repair
		for _, pe := range strike {
			downUntil[pe] = rec
			down.push(rec)
		}
		out = append(out,
			Event{At: at, Kind: failKind, PEs: strike},
			Event{At: sim.Time(rec), Kind: RecoverPE, PEs: strike})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// domainCount returns how many failure domains tile a machine of numPEs
// processors under the event's Domain shape, numPEs domains of one PE
// when Domain is empty. Every PE belongs to exactly one domain.
func (e Event) domainCount(numPEs int) int {
	switch e.Domain {
	case "rack":
		return (numPEs + e.DomA - 1) / e.DomA
	case "block":
		side := gridSide(numPEs)
		bw := (side + e.DomA - 1) / e.DomA
		bh := (side + e.DomB - 1) / e.DomB
		return bw * bh
	}
	return numPEs
}

// domainMembers returns domain d's PE indices in ascending order. Racks
// are contiguous index runs of DomA PEs; blocks are DomA×DomB tiles of
// the row-major gridSide×gridSide layout, clipped to the machine;
// without a Domain, domain d is PE d alone.
func (e Event) domainMembers(d, numPEs int) []int {
	switch e.Domain {
	case "rack":
		lo := d * e.DomA
		hi := lo + e.DomA
		if hi > numPEs {
			hi = numPEs
		}
		out := make([]int, 0, hi-lo)
		for pe := lo; pe < hi; pe++ {
			out = append(out, pe)
		}
		return out
	case "block":
		side := gridSide(numPEs)
		bw := (side + e.DomA - 1) / e.DomA
		bx, by := d%bw, d/bw
		var out []int
		for y := by * e.DomB; y < (by+1)*e.DomB && y < side; y++ {
			for x := bx * e.DomA; x < (bx+1)*e.DomA && x < side; x++ {
				if pe := y*side + x; pe < numPEs {
					out = append(out, pe)
				}
			}
		}
		return out
	}
	return []int{d}
}

// gridSide is the side of the smallest square grid covering numPEs
// processors row-major — block domains tile this grid so every PE falls
// in exactly one block even on non-square machines.
func gridSide(numPEs int) int {
	side := 1
	for side*side < numPEs {
		side++
	}
	return side
}
