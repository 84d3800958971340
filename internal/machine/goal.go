package machine

import (
	"cwnsim/internal/sim"
	"cwnsim/internal/workload"
)

// Goal is one task instance in flight: the unit of load distribution.
// A goal is created on the PE executing its parent, placed by the
// strategy (possibly travelling several hops), accepted by exactly one
// PE, executed there once, and never moved again.
//
// Goal objects are pooled: once a goal has executed and (for inner
// tasks) its children's responses have been combined, the machine
// recycles the object for a future goal. Strategies must therefore not
// retain a *Goal after handing it back to the machine via Accept,
// SendGoal or RouteGoal — the shipped strategies never do. The
// poolsafe analyzer (internal/analysis) enforces the machine-side
// discipline at vet time.
//
//simlint:pooled
type Goal struct {
	// ID is unique within a run, in creation order (0 = the first
	// job's root).
	ID int64
	// Task is the immutable tree node this goal evaluates.
	Task *workload.Task
	// job is the injected job this goal descends from; its tree supplies
	// the Combine function and its injection time anchors the sojourn
	// measurement when the root goal responds.
	job *jobState
	// Origin is the PE on which the goal was created.
	Origin int
	// ParentPE is where the parent task waits; responses are routed
	// there. -1 for the root goal.
	ParentPE int
	// ParentID is the parent goal's ID (-1 for the root).
	ParentID int64
	// parent is the parent task's pending record on ParentPE (nil for
	// the root); the response carries it there, so nothing is looked
	// up by ID.
	parent *pendingTask
	// Hops counts link/bus traversals so far — the paper's "count field
	// that says how many hops the message has travelled from the
	// source". For CWN it includes backtracking, so it can exceed the
	// final topological distance from Origin.
	Hops int
	// CreatedAt and AcceptedAt record virtual times for agility stats.
	CreatedAt  sim.Time
	AcceptedAt sim.Time

	// epoch snapshots the job's attempt epoch at creation. A crash
	// (state-loss failure) aborts a job by bumping its epoch; goals
	// carrying an older epoch are stale — their attempt is dead — and
	// the machine discards them wherever they surface (delivery,
	// service completion). Only consulted on lossy (crash-scripted)
	// runs.
	epoch uint64
}

// response carries a completed goal's value back to its parent task.
// task is the parent's pending record, valid only while task.goal is
// still the goal goalID names: a crash may have purged the record and
// the pool handed it to another task.
type response struct {
	dstPE  int32 // the parent's PE
	hops   int32
	goalID int64 // the *parent* goal awaiting this value
	value  int64
	task   *pendingTask
}

// itemKind discriminates ready-queue entries.
type itemKind uint8

const (
	itemGoal itemKind = iota
	itemResponse
)

// item is one entry in a PE's ready queue: a message waiting to be
// processed (the paper's definition of load).
type item struct {
	kind itemKind
	goal *Goal
	resp response
}

// pendingTask is a task that has spawned children and awaits their
// responses. It never migrates (Section 2 of the paper). Its PE links
// it into a list (PE.pend) through prev and next, which only a crash
// or a purge walks. Pending tasks are pooled alongside goals; vals
// keeps its backing array across reuses.
//
//simlint:pooled
type pendingTask struct {
	goal       *Goal
	remaining  int
	vals       []int64
	prev, next *pendingTask
}
