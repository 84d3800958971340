// Package trace implements ORACLE's observability features: a typed
// event stream of the goal/message lifecycle, and the load-distribution
// monitor ("a specially formatted output that can be used to drive a
// graphics program to monitor load distribution … displayed with a
// continuum of colors representing relative activity on each PE"),
// which the paper's authors "found particularly useful for debugging
// the load balancing strategies". So did we.
//
// # Sharded runs
//
// Tracing and monitoring are shard-safe. The machine (every run is a
// group of machine.Config.Shards shards) does not stream events to the
// Sink live — several shards run on their own goroutines, and a live
// interleaving would depend on the thread schedule. Instead each shard
// appends its events to a private buffer in its own deterministic
// engine order, and the coordinator replays the union into the Sink at
// finalize, totally ordered by (At, shard, within-shard sequence).
// Record therefore always runs on one goroutine: the coordinator's,
// after the shards have torn down (a one-shard run, whose buffer is
// already in order, replays it a chunk at a time). K >= 2 shards
// conserve per-kind event counts against the one-shard run but order
// same-timestamp cross-shard events differently and route goals along
// different walks (GoalSent counts are placement-dependent, so only the
// placement-independent kinds are conserved). Monitor frames merge the
// same way: every shard samples its own PE block at globally
// synchronized instants and the coordinator concatenates the blocks
// into full-machine frames.
//
// # Span export
//
// Spans is the causal consumer of the event stream: it folds the flat
// events into one span per goal — created, hop path, acceptances
// (re-exports under GM/ACWN appear as extra accept/send rounds),
// execution window, response trip — and WritePerfetto renders them as
// Chrome trace-event JSON (one process per PE, "X" slices for
// execution, async spans for goal lifetimes and response trips)
// loadable in Perfetto or chrome://tracing. cmd/sweep and cmd/serve
// expose it via -trace-out.
package trace

import (
	"fmt"
	"io"

	"cwnsim/internal/sim"
)

// Kind classifies trace events.
type Kind uint8

const (
	// GoalCreated: a task spawned a child goal on PE.
	GoalCreated Kind = iota
	// GoalSent: PE forwarded a goal one hop to Other.
	GoalSent
	// GoalAccepted: PE accepted a goal for execution (terminal for CWN;
	// GM/ACWN may later re-export a still-queued goal, producing another
	// GoalSent/GoalAccepted pair).
	GoalAccepted
	// GoalExecStarted: PE began executing a goal's body (service start).
	// Together with GoalExecuted it brackets the execution window —
	// the "executing" slice of a goal's span.
	GoalExecStarted
	// GoalExecuted: PE finished executing a goal's body.
	GoalExecuted
	// RespSent: PE emitted a response toward Other (the parent's PE).
	RespSent
	// RespDelivered: the response for Goal's parent arrived at PE.
	RespDelivered
	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case GoalCreated:
		return "goal-created"
	case GoalSent:
		return "goal-sent"
	case GoalAccepted:
		return "goal-accepted"
	case GoalExecStarted:
		return "goal-exec-started"
	case GoalExecuted:
		return "goal-executed"
	case RespSent:
		return "resp-sent"
	case RespDelivered:
		return "resp-delivered"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is one observation of the simulation.
type Event struct {
	At    sim.Time
	Kind  Kind
	PE    int   // where it happened
	Other int   // peer PE (destination for sends), -1 if n/a
	Goal  int64 // goal ID, -1 if n/a
}

// Sink receives events as they happen. Implementations must be cheap:
// Record runs on the simulation's hot path.
type Sink interface {
	Record(ev Event)
}

// Collector stores every event in memory, with query helpers. It is the
// test suite's microscope.
type Collector struct {
	Events []Event
}

// Record implements Sink.
func (c *Collector) Record(ev Event) { c.Events = append(c.Events, ev) }

// Grow pre-sizes the collector for at least n more events, so a long
// traced run appends into reserved capacity instead of re-doubling the
// event slice as it grows. The machine calls it before each replay of
// buffered events with the replay's size; capacity at least doubles, so
// repeated calls stay amortized O(1) per event. n <= 0 is a no-op.
func (c *Collector) Grow(n int) {
	if n <= 0 || cap(c.Events)-len(c.Events) >= n {
		return
	}
	grown := make([]Event, len(c.Events), max(len(c.Events)+n, 2*cap(c.Events)))
	copy(grown, c.Events)
	c.Events = grown
}

// ByKind returns the events of one kind, in order.
func (c *Collector) ByKind(k Kind) []Event {
	var out []Event
	for _, ev := range c.Events {
		if ev.Kind == k {
			out = append(out, ev)
		}
	}
	return out
}

// ByGoal returns the events mentioning goal id, in order.
func (c *Collector) ByGoal(id int64) []Event {
	var out []Event
	for _, ev := range c.Events {
		if ev.Goal == id {
			out = append(out, ev)
		}
	}
	return out
}

// Count returns how many events of kind k were recorded.
func (c *Collector) Count(k Kind) int {
	n := 0
	for _, ev := range c.Events {
		if ev.Kind == k {
			n++
		}
	}
	return n
}

// Counter tallies events by kind without storing them.
type Counter struct {
	counts [numKinds]int64
}

// Record implements Sink.
func (c *Counter) Record(ev Event) {
	if ev.Kind < numKinds {
		c.counts[ev.Kind]++
	}
}

// Count returns the tally for kind k.
func (c *Counter) Count(k Kind) int64 {
	if k >= numKinds {
		return 0
	}
	return c.counts[k]
}

// Logger writes one formatted line per event — ORACLE's textual trace.
// A Filter (nil = everything) selects which kinds are written.
type Logger struct {
	W      io.Writer
	Filter func(Kind) bool
}

// Record implements Sink.
func (l *Logger) Record(ev Event) {
	if l.Filter != nil && !l.Filter(ev.Kind) {
		return
	}
	if ev.Other >= 0 {
		fmt.Fprintf(l.W, "%8d %-14s pe=%-4d peer=%-4d goal=%d\n", ev.At, ev.Kind, ev.PE, ev.Other, ev.Goal)
		return
	}
	fmt.Fprintf(l.W, "%8d %-14s pe=%-4d goal=%d\n", ev.At, ev.Kind, ev.PE, ev.Goal)
}

// Multi fans events out to several sinks.
type Multi []Sink

// Record implements Sink.
func (m Multi) Record(ev Event) {
	for _, s := range m {
		s.Record(ev)
	}
}
