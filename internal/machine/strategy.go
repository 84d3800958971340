package machine

// Strategy is a load-distribution scheme. One Strategy value configures
// a whole machine; NewNode supplies the per-PE state. Implementations
// live in package core (CWN, the Gradient Model, baselines).
//
// Strategies run on the PEs' communication co-processors, as the paper
// assumes: their decisions cost channel time (for the messages they
// send) but never PE compute time.
type Strategy interface {
	// Name identifies the strategy in reports, e.g. "CWN(r=9,h=2)".
	Name() string
	// NewNode returns the per-PE strategy state. Called once per PE
	// after the machine is wired. Strategies register periodic
	// processes here via Machine.NewTicker, which draws each one's
	// phase from the run's engine stream at registration; a process
	// runs until the run ends.
	NewNode(pe *PE) NodeStrategy
}

// EventKind discriminates the typed events a NodeStrategy receives.
type EventKind uint8

const (
	// GoalCreated asks the node to place a goal just created on this PE:
	// keep it (pe.Accept) or ship it (pe.SendGoal / pe.RouteGoal).
	GoalCreated EventKind = iota
	// GoalArrived delivers a goal message from neighbor From: accept it
	// or forward it on.
	GoalArrived
	// Control delivers a strategy control payload from neighbor From
	// (e.g. a Gradient Model proximity update).
	Control

	// Availability events (scenario runs only). They are delivered only
	// to nodes that opt in via FailureAware, so a strategy that does not
	// behaves — and costs — exactly as a sentinel-only one.

	// PEFailed announces that PE From lost its compute (blackout or
	// crash). It arrives with the failed PE's immediate sentinel-load
	// broadcast, so it is charged channel time like any load word and
	// reaches only the failed PE's neighbors.
	PEFailed
	// PERecovered announces that PE From is serving again; it arrives
	// with the recovery load broadcast, neighbors only.
	PERecovered
)

// Event is one typed occurrence delivered to a NodeStrategy. Which
// fields are meaningful depends on Kind; the zero value of the rest is
// never read.
type Event struct {
	Kind EventKind
	// Goal is the goal being placed (GoalCreated) or delivered
	// (GoalArrived). Pooled — do not retain after handing it back to
	// the machine.
	Goal *Goal
	// From is the event's other party: the sending neighbor for
	// GoalArrived/Control, the affected PE for PEFailed/PERecovered.
	From int
	// Payload is the Control message body.
	Payload any
}

// NodeStrategy is the per-PE half of a Strategy: a handler for the
// typed event stream the machine delivers. Every node sees GoalCreated,
// GoalArrived and Control; PEFailed/PERecovered additionally require
// FailureAware.
type NodeStrategy interface {
	HandleEvent(ev Event)
}

// SequentialOnly marks strategies whose nodes read global machine state
// — the Ideal oracle inspects every PE's true queue length on each
// placement. Such reads are fine on a one-shard run, whose single shard
// owns every PE, but are cross-shard data races on several shards,
// where remote PEs advance on other goroutines; NewStream refuses to
// run them on more than one shard.
type SequentialOnly interface {
	Strategy
	// SequentialOnly documents why sharding is impossible.
	SequentialOnly() string
}

// FailureAware is the opt-in for availability events: a node whose
// WantsFailureEvents returns true receives PEFailed/PERecovered from
// failing neighbors, with their sentinel-load broadcast. The bool lets
// one node type gate the capability on a strategy flag, so
// "sentinel-only" and "failure-aware" variants of a scheme can be
// compared head to head.
type FailureAware interface {
	NodeStrategy
	WantsFailureEvents() bool
}
