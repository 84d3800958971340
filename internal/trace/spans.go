package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"cwnsim/internal/sim"
)

// Hop is one goal-message transmission: the goal left From toward To at
// virtual time At.
type Hop struct {
	At       sim.Time
	From, To int
}

// Accept is one acceptance of a goal into a PE's ready queue. Most
// goals have exactly one; strategies with re-distribution (GM, ACWN)
// may pluck a queued goal back out and re-export it, producing another
// hop round and another Accept — the re-export chain.
type Accept struct {
	At sim.Time
	PE int
}

// Span is one goal's folded lifecycle: created → (hops → accepted)* →
// executing → responded. Timestamps that never happened (a goal cut off
// at the horizon, a root goal's response) are -1.
type Span struct {
	Goal      int64
	CreatedAt sim.Time
	CreatedPE int

	Hops    []Hop
	Accepts []Accept

	ExecStart sim.Time
	ExecEnd   sim.Time
	ExecPE    int

	RespSentAt      sim.Time
	RespFrom        int
	RespTo          int
	RespDeliveredAt sim.Time
}

// end returns the span's last known instant — the close of its
// lifetime slice even when the run cut it off mid-flight.
func (s *Span) end() sim.Time {
	t := s.CreatedAt
	for _, h := range s.Hops {
		if h.At > t {
			t = h.At
		}
	}
	for _, a := range s.Accepts {
		if a.At > t {
			t = a.At
		}
	}
	for _, c := range []sim.Time{s.ExecStart, s.ExecEnd, s.RespSentAt, s.RespDeliveredAt} {
		if c > t {
			t = c
		}
	}
	return t
}

// Spans folds the flat event stream into per-goal spans — the causal
// view of a run. It implements Sink; attach it as Config.Trace (or one
// arm of a Multi), then query the spans or export them with
// WritePerfetto. Like every sink it sees events on one goroutine only,
// replayed in merged order at the run's finalize.
type Spans struct {
	byGoal map[int64]*Span
	maxPE  int
}

// Record implements Sink.
func (sp *Spans) Record(ev Event) {
	if sp.byGoal == nil {
		sp.byGoal = make(map[int64]*Span)
	}
	if ev.PE > sp.maxPE {
		sp.maxPE = ev.PE
	}
	if ev.Other > sp.maxPE {
		sp.maxPE = ev.Other
	}
	s := sp.byGoal[ev.Goal]
	if s == nil {
		s = &Span{Goal: ev.Goal, CreatedAt: ev.At, CreatedPE: ev.PE,
			ExecStart: -1, ExecEnd: -1, ExecPE: -1,
			RespSentAt: -1, RespFrom: -1, RespTo: -1, RespDeliveredAt: -1}
		sp.byGoal[ev.Goal] = s
	}
	switch ev.Kind {
	case GoalCreated:
		s.CreatedAt, s.CreatedPE = ev.At, ev.PE
	case GoalSent:
		s.Hops = append(s.Hops, Hop{At: ev.At, From: ev.PE, To: ev.Other})
	case GoalAccepted:
		s.Accepts = append(s.Accepts, Accept{At: ev.At, PE: ev.PE})
	case GoalExecStarted:
		s.ExecStart, s.ExecPE = ev.At, ev.PE
	case GoalExecuted:
		s.ExecEnd, s.ExecPE = ev.At, ev.PE
	case RespSent:
		s.RespSentAt, s.RespFrom, s.RespTo = ev.At, ev.PE, ev.Other
	case RespDelivered:
		s.RespDeliveredAt = ev.At
	}
}

// Len returns the number of goals spanned.
func (sp *Spans) Len() int { return len(sp.byGoal) }

// Span returns goal id's span, or nil.
func (sp *Spans) Span(id int64) *Span { return sp.byGoal[id] }

// All returns every span ordered by goal ID — a deterministic order at
// any shard count (IDs mint sequentially within per-shard bands).
func (sp *Spans) All() []*Span {
	out := make([]*Span, 0, len(sp.byGoal))
	for _, s := range sp.byGoal {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Goal < out[j].Goal })
	return out
}

// path renders the goal's travel as "pe>pe>..." from its creation PE
// through every hop destination.
func (s *Span) path() string {
	p := fmt.Sprintf("%d", s.CreatedPE)
	for _, h := range s.Hops {
		p += fmt.Sprintf(">%d", h.To)
	}
	return p
}

// WritePerfetto renders the spans as Chrome trace-event JSON — the
// format Perfetto and chrome://tracing load directly. The mapping: one
// trace "process" per PE; each goal's execution window is an "X"
// complete slice on its executing PE's track (PEs serve one message at
// a time, so slices never overlap); the whole created-to-responded
// lifetime is an async "b"/"e" span anchored at the creating PE, with
// the hop path and accept count in its args (re-export chains show as
// accepts > 1); each goal-message hop is an "i" instant on the sending
// PE; the response trip is a second async span from executor to
// parent. Virtual time units are written as microseconds (the format's
// ts unit) one-to-one. Output is deterministic: spans emit in goal-ID
// order, integers only.
func (sp *Spans) WritePerfetto(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "{\"traceEvents\":[\n")
	first := true
	emit := func(format string, args ...any) {
		if !first {
			fmt.Fprint(bw, ",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	for pe := 0; pe <= sp.maxPE; pe++ {
		emit(`{"ph":"M","name":"process_name","pid":%d,"args":{"name":"PE %d"}}`, pe, pe)
		emit(`{"ph":"M","name":"process_sort_index","pid":%d,"args":{"sort_index":%d}}`, pe, pe)
	}
	for _, s := range sp.All() {
		emit(`{"ph":"b","cat":"goal","id":"%d","name":"goal %d","pid":%d,"tid":0,"ts":%d,"args":{"hops":%d,"accepts":%d,"path":"%s"}}`,
			s.Goal, s.Goal, s.CreatedPE, s.CreatedAt, len(s.Hops), len(s.Accepts), s.path())
		emit(`{"ph":"e","cat":"goal","id":"%d","name":"goal %d","pid":%d,"tid":0,"ts":%d}`,
			s.Goal, s.Goal, s.CreatedPE, s.end())
		for _, h := range s.Hops {
			emit(`{"ph":"i","cat":"hop","name":"goal %d: %d->%d","pid":%d,"tid":0,"ts":%d,"s":"p"}`,
				s.Goal, h.From, h.To, h.From, h.At)
		}
		if s.ExecEnd >= 0 {
			start := s.ExecStart
			if start < 0 {
				start = s.ExecEnd // stream lacked exec-start events
			}
			emit(`{"ph":"X","cat":"exec","name":"goal %d","pid":%d,"tid":0,"ts":%d,"dur":%d}`,
				s.Goal, s.ExecPE, start, s.ExecEnd-start)
		}
		if s.RespSentAt >= 0 {
			end := s.RespDeliveredAt
			if end < 0 {
				end = s.end() // response still on the wire at the horizon
			}
			emit(`{"ph":"b","cat":"resp","id":"%d","name":"resp %d","pid":%d,"tid":0,"ts":%d,"args":{"to":%d}}`,
				s.Goal, s.Goal, s.RespFrom, s.RespSentAt, s.RespTo)
			emit(`{"ph":"e","cat":"resp","id":"%d","name":"resp %d","pid":%d,"tid":0,"ts":%d}`,
				s.Goal, s.Goal, s.RespFrom, end)
		}
	}
	fmt.Fprint(bw, "\n]}\n")
	return bw.Flush()
}
