package machine

import (
	"fmt"

	"cwnsim/internal/sim"
	"cwnsim/internal/trace"
)

// itemRing is a growable circular FIFO of ready-queue items. It replaces
// the old append-and-compact slice: pushes and pops are O(1) with no
// copying, and the mid-queue removals TakeNewest/OldestQueuedGoal need
// shift only the shorter side of the removal point. Capacity is always a
// power of two (index arithmetic by mask). The ring does not hold its
// length: that is the PE's entry in Machine.peQueue, the dense count a
// load read takes, so the methods that need it take it as n and the
// PE's wrappers (pushReady and the rest) keep the count.
type itemRing struct {
	buf  []item
	head int
}

// at returns the item at logical position i (0 = front). Callers must
// keep i below the length.
func (r *itemRing) at(i int) *item {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

// push appends an item to a ring of length n.
func (r *itemRing) push(n int, it item) {
	if n == len(r.buf) {
		r.grow(n)
	}
	r.buf[(r.head+n)&(len(r.buf)-1)] = it
}

// pushFront prepends an item to a ring of length n, making it the next
// to be served. The failure path uses it to put an interrupted response
// back at the head of the queue so it is combined first on recovery.
func (r *itemRing) pushFront(n int, it item) {
	if n == len(r.buf) {
		r.grow(n)
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = it
}

func (r *itemRing) popFront() item {
	it := r.buf[r.head]
	r.buf[r.head] = item{} // drop references so pooled objects are not pinned
	r.head = (r.head + 1) & (len(r.buf) - 1)
	return it
}

// removeAt deletes the item at logical position i of a ring of length
// n, preserving FIFO order of the rest by shifting the shorter side.
func (r *itemRing) removeAt(n, i int) {
	mask := len(r.buf) - 1
	if i < n-1-i {
		for j := i; j > 0; j-- {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j-1)&mask]
		}
		r.buf[r.head] = item{}
		r.head = (r.head + 1) & mask
	} else {
		for j := i; j < n-1; j++ {
			r.buf[(r.head+j)&mask] = r.buf[(r.head+j+1)&mask]
		}
		r.buf[(r.head+n-1)&mask] = item{}
	}
}

// grow doubles the capacity of a full ring of length n.
func (r *itemRing) grow(n int) {
	oldCap := len(r.buf)
	newCap := 16
	if oldCap > 0 {
		newCap = oldCap * 2
	}
	nb := make([]item, newCap)
	for i := 0; i < n; i++ {
		nb[i] = r.buf[(r.head+i)&(oldCap-1)]
	}
	r.buf = nb
	r.head = 0
}

// pushReady appends it to the PE's ready queue.
func (pe *PE) pushReady(it item) {
	q := &pe.m.peQueue[pe.lx]
	pe.ready.push(int(*q), it)
	*q++
}

// pushReadyFront prepends it to the PE's ready queue.
func (pe *PE) pushReadyFront(it item) {
	q := &pe.m.peQueue[pe.lx]
	pe.ready.pushFront(int(*q), it)
	*q++
}

// popReady removes and returns the head of the PE's non-empty ready
// queue.
func (pe *PE) popReady() item {
	pe.m.peQueue[pe.lx]--
	return pe.ready.popFront()
}

// removeReady deletes the item at position i of the PE's ready queue.
func (pe *PE) removeReady(i int) {
	q := &pe.m.peQueue[pe.lx]
	pe.ready.removeAt(int(*q), i)
	*q--
}

// PE is one processing element. It serves one ready-queue message at a
// time (goal execution or response integration); all fields are managed
// by the machine, and strategies interact through the exported methods.
//
// Memory layout: PE structs live contiguously in Machine.peBlock, and
// the per-event hot scalars — busy, serviceEnd, busyTime, failed,
// speed, the ready-queue length and the pending-task count — live in
// machine-level parallel slices indexed by lx (see the struct-of-arrays
// fields on Machine), keeping the event loop's working set dense; a
// load tick reads only those and the machine's flat fan table. The
// adjacency slices (nbrs, nbrLoad) are subslices of machine-wide flat
// backings. Load words delivered on a channel write the views through
// the machine's receiver-slot table (Machine.slots), never searching
// nbrs. The binary search nbrIdx over the ascending nbrs serves lookups
// by neighbor ID (KnownLoad) and the table's construction.
type PE struct {
	m  *Machine
	id int
	lx int // index into the machine's block-local parallel slices (id - peLo)

	ready     itemRing    // FIFO ready queue of waiting messages
	inService item        // the message in service (valid while busy)
	svc       sim.Timer   // reusable service-completion event, held by value
	pending   pendingSlab // tasks awaiting child responses, by goal ID

	nbrs    []int   // cached topology neighbors, ascending
	nbrLoad []int32 // last known load per neighbor (-1 until first heard); nil on a LoadBlind machine

	node NodeStrategy // strategy state for this PE (set after construction)

	// wantsFailure is resolved once at construction from the node's
	// optional FailureAware interface, so event delivery costs one bool
	// test, not a type assert.
	wantsFailure bool

	// Blackout accounting (internal/scenario); the failed flag itself is
	// hot state and lives in Machine.peFailed.
	failedAt sim.Time
	downTime sim.Time // accumulated blackout time (closed on recovery/finalize)

	// ckptDebt is checkpoint cost accrued while idle: a busy PE pays a
	// tick's cost by extending its in-flight service, an idle one owes
	// it and pays at its next service start (checkpointTick).
	ckptDebt sim.Time

	// accounting
	goalsExecuted int64
}

// nbrIdx returns the index of nbrPE in pe.nbrs, or -1 when nbrPE is not
// a neighbor. Neighbor lists are ascending (topology contract), so this
// is a binary search.
func (pe *PE) nbrIdx(nbrPE int) int {
	lo, hi := 0, len(pe.nbrs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pe.nbrs[mid] < nbrPE {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(pe.nbrs) && pe.nbrs[lo] == nbrPE {
		return lo
	}
	return -1
}

// FailedLoad is the load a blacked-out PE advertises: large enough
// that push strategies (which seek the least-loaded PE) steer away,
// small enough that int32 neighbor tables and strategy arithmetic
// cannot overflow. Pull strategies that hunt for the MOST-loaded
// neighbor must treat loads at or above this value as "unavailable,
// not a victim" — a failed PE's queue has been evacuated, and stealing
// from it yields only refusals until recovery.
const FailedLoad = 1 << 30

// ID returns the PE's index, 0..P-1.
func (pe *PE) ID() int { return pe.id }

// Node returns the PE's strategy state (for inspection and tests).
func (pe *PE) Node() NodeStrategy { return pe.node }

// Machine returns the owning machine.
func (pe *PE) Machine() *Machine { return pe.m }

// Now returns the current virtual time.
func (pe *PE) Now() sim.Time { return pe.m.eng.Now() }

// Load returns this PE's advertised load under the configured metric.
// A failed PE advertises FailedLoad, steering every load-comparing
// strategy away from it until recovery.
func (pe *PE) Load() int { return int(pe.m.loadOf(pe.lx)) }

// loadOf returns owned PE lx's advertised load (see PE.Load), read from
// the dense per-PE state alone.
func (m *Machine) loadOf(lx int) int32 {
	if m.peFailed[lx] {
		return FailedLoad
	}
	load := m.peQueue[lx]
	if m.cfg.LoadMetric == LoadQueuePlusPending {
		load += m.pePending[lx]
	}
	return load
}

// Failed reports whether the PE is currently blacked out by a scenario.
func (pe *PE) Failed() bool { return pe.m.peFailed[pe.lx] }

// Speed returns the PE's current service-speed multiplier (1 nominal).
func (pe *PE) Speed() float64 {
	if sp := pe.m.peSpeed; sp != nil && sp[pe.lx] != 0 {
		return sp[pe.lx]
	}
	return 1
}

// queueLen returns the number of messages waiting (not counting one in
// service) — the paper's base load measure.
func (pe *PE) queueLen() int { return int(pe.m.peQueue[pe.lx]) }

// QueuedGoals returns how many ready-queue entries are unstarted goals
// (exportable work, as opposed to responses which must be handled
// locally).
func (pe *PE) QueuedGoals() int {
	n := 0
	for i := 0; i < pe.queueLen(); i++ {
		if pe.ready.at(i).kind == itemGoal {
			n++
		}
	}
	return n
}

// PendingTasks returns the number of local tasks awaiting responses —
// the "future commitments" component of the refined load metric.
func (pe *PE) PendingTasks() int { return int(pe.m.pePending[pe.lx]) }

// Neighbors returns the PE's neighbors in ascending order. Callers must
// not modify the slice.
func (pe *PE) Neighbors() []int { return pe.nbrs }

// KnownLoad returns the most recently learned load of neighbor nbrPE and
// whether any load word from it has been heard yet (loads are assumed 0
// until first heard, as the paper assumes for proximities). Like
// LeastLoadedNeighbor and MinNeighborLoad, it panics on a machine whose
// strategy is LoadBlind.
func (pe *PE) KnownLoad(nbrPE int) (load int, heard bool) {
	if pe.nbrLoad == nil {
		pe.m.blindRead("KnownLoad")
	}
	i := pe.nbrIdx(nbrPE)
	if i < 0 {
		panic(fmt.Sprintf("machine: PE %d is not a neighbor of PE %d", nbrPE, pe.id))
	}
	l := pe.nbrLoad[i]
	return int(max(l, 0)), l >= 0
}

// LeastLoadedNeighbor returns the neighbor with the smallest known load,
// an unheard neighbor's counting as 0. Ties are broken uniformly at
// random from the run's seeded stream (so repeated forwarding does not
// systematically favor low PE numbers). Returns (-1, 0) when the PE has
// no neighbors.
func (pe *PE) LeastLoadedNeighbor() (nbrPE, load int) {
	if pe.nbrLoad == nil {
		pe.m.blindRead("LeastLoadedNeighbor")
	}
	if len(pe.nbrs) == 0 {
		return -1, 0
	}
	best := int32(1<<31 - 1)
	count := 0
	choice := -1
	for i, nb := range pe.nbrs {
		l := max(pe.nbrLoad[i], 0)
		switch {
		case l < best:
			best, count, choice = l, 1, nb
		case l == best:
			count++
			if pe.m.eng.Rng().Intn(count) == 0 {
				choice = nb
			}
		}
	}
	return choice, int(best)
}

// MinNeighborLoad returns the smallest known neighbor load, an unheard
// neighbor's counting as 0, or 0 when the PE has no neighbors.
func (pe *PE) MinNeighborLoad() int {
	if pe.nbrLoad == nil {
		pe.m.blindRead("MinNeighborLoad")
	}
	if len(pe.nbrs) == 0 {
		return 0
	}
	best := pe.nbrLoad[0]
	for _, l := range pe.nbrLoad[1:] {
		if l < best {
			best = l
		}
	}
	return int(max(best, 0))
}

// blindRead panics on a read of a neighbor view through method on a
// machine whose strategy declared itself LoadBlind, which keeps no load
// view (PE.nbrLoad is nil there, and nowhere else).
func (m *Machine) blindRead(method string) {
	panic(fmt.Sprintf("machine: PE.%s on a machine running %s, which declares itself LoadBlind (%s)",
		method, m.strat.Name(), m.strat.(LoadBlind).LoadBlind()))
}

// Accept places the goal in this PE's ready queue. Under CWN acceptance
// is final ("a goal, once it is accepted by a PE, remains there");
// strategies with re-distribution (GM, ACWN) may later pluck a still
// queued goal back out with TakeNewestQueuedGoal, so travel-distance
// statistics are recorded when the goal finally executes, not here.
func (pe *PE) Accept(g *Goal) {
	g.AcceptedAt = pe.m.eng.Now()
	pe.m.emit(trace.GoalAccepted, pe.id, -1, g.ID)
	pe.enqueue(item{kind: itemGoal, goal: g})
}

// SendGoal forwards the goal one hop to neighbor `to`, charging the
// connecting channel. On delivery the receiving strategy's GoalArrived
// runs. The hop counter increments — including when a goal is bounced
// back where it came from, matching the paper's travel-distance
// accounting.
func (pe *PE) SendGoal(to int, g *Goal) {
	m := pe.m
	chs := m.chansBetween(pe.id, to)
	if len(chs) == 0 {
		panic(fmt.Sprintf("machine: SendGoal %d->%d: not neighbors", pe.id, to))
	}
	m.goalHop(pe.id, to, to, m.pickChannel(chs), g)
}

// RouteGoal ships the goal to an arbitrary destination PE along a
// shortest path, one hop at a time on the co-processors; only the final
// PE's strategy sees GoalArrived. Strategies with global placement
// decisions (e.g. the Ideal oracle baseline) use this; neighborhood
// strategies should prefer the hop-by-hop SendGoal.
func (pe *PE) RouteGoal(dst int, g *Goal) {
	if dst == pe.id {
		pe.Accept(g)
		return
	}
	pe.m.routeGoal(pe.id, dst, g)
}

// SendControl delivers an opaque strategy payload to neighbor `to`,
// charging CtrlHopTime on the connecting channel.
func (pe *PE) SendControl(to int, payload any) {
	m := pe.m
	chs := m.chansBetween(pe.id, to)
	if len(chs) == 0 {
		panic(fmt.Sprintf("machine: SendControl %d->%d: not neighbors", pe.id, to))
	}
	m.stats.MsgCounts[MsgControl]++
	w := m.newMsg(wireCtrl, m.pickChannel(chs), pe.id, pe.Load())
	w.to = to
	w.payload = payload
	m.transmit(m.cfg.CtrlHopTime, w)
}

// BroadcastControl delivers a payload to every neighbor. On a bus each
// attached channel carries the broadcast as a single transaction heard
// by all members — the key bandwidth advantage of the double-lattice-
// mesh; on point-to-point topologies it degenerates to one message per
// link.
func (pe *PE) BroadcastControl(payload any) {
	pe.m.broadcast(pe, wireCtrlBcast, MsgControl, pe.m.cfg.CtrlHopTime, payload)
}

// TakeNewestQueuedGoal removes and returns the most recently enqueued
// unstarted goal, for strategies that re-export queued work. Returns
// nil when the queue holds no goals. In a depth-first tree computation
// the newest goal tends to be the smallest remaining subtree, so this
// policy keeps big work local and exports crumbs.
func (pe *PE) TakeNewestQueuedGoal() *Goal {
	for i := pe.queueLen() - 1; i >= 0; i-- {
		if it := pe.ready.at(i); it.kind == itemGoal {
			g := it.goal
			pe.removeReady(i)
			return g
		}
	}
	return nil
}

// TakeOldestQueuedGoal removes and returns the least recently enqueued
// unstarted goal — the front of the queue, which in a tree computation
// is typically the largest waiting subtree. Exporting it lets the
// receiver become a self-sustaining source of further work.
func (pe *PE) TakeOldestQueuedGoal() *Goal {
	for i := 0; i < pe.queueLen(); i++ {
		if it := pe.ready.at(i); it.kind == itemGoal {
			g := it.goal
			pe.removeReady(i)
			return g
		}
	}
	return nil
}

// enqueue appends a message to the ready queue and wakes the PE if
// idle. A failed PE only queues — responses freeze there until
// recovery restarts service.
func (pe *PE) enqueue(it item) {
	pe.pushReady(it)
	if m := pe.m; !m.peBusy[pe.lx] && !m.peFailed[pe.lx] {
		pe.startNext()
	}
}

// startNext begins service of the queue head.
func (pe *PE) startNext() {
	m := pe.m
	if m.peQueue[pe.lx] == 0 {
		m.peBusy[pe.lx] = false
		return
	}
	it := pe.popReady()
	m.peBusy[pe.lx] = true
	var dur sim.Time
	switch it.kind {
	case itemGoal:
		dur = m.cfg.GrainTime * sim.Time(it.goal.Task.Work)
		m.stats.QueueDelay.Add(float64(m.eng.Now() - it.goal.AcceptedAt))
		m.emit(trace.GoalExecStarted, pe.id, -1, it.goal.ID)
	case itemResponse:
		dur = m.cfg.CombineTime
	}
	if sp := m.peSpeed; sp != nil {
		if s := sp[pe.lx]; s != 0 {
			dur = scaledUnits(float64(dur) / s)
		}
	}
	if m.ckpt {
		// Restored work replays fast: goals of a crash retry starting
		// inside the job's replay horizon re-walk the tree at one unit
		// each — their results were snapshotted, not lost. The horizon
		// is set once at the retry and only read here, so the replay is
		// identical under any shard schedule. Checkpoint debt owed from
		// ticks that caught this PE idle is paid on top of the next
		// service.
		if it.kind == itemGoal && m.eng.Now() < it.goal.job.replayUntil {
			dur = 1
		}
		if d := pe.ckptDebt; d > 0 {
			pe.ckptDebt = 0
			dur += d
		}
	}
	m.peBusyTime[pe.lx] += dur
	m.peServiceEnd[pe.lx] = m.eng.Now() + dur
	pe.inService = it
	pe.svc.Schedule(dur)
}

// serviceDone fires when the in-service message completes: apply its
// effects, then start the next one. It is the PE's reusable Timer
// callback, so steady-state service costs no event allocations.
func (pe *PE) serviceDone() {
	it := pe.inService
	pe.inService = item{}
	pe.finish(it)
	pe.startNext()
}

// finish applies the effects of a completed service.
func (pe *PE) finish(it item) {
	switch it.kind {
	case itemGoal:
		g := it.goal
		// A goal in service when a crash aborted its job elsewhere runs
		// to completion (this PE cannot know yet) but its result has no
		// attempt to land in: discard it, service time wasted.
		if pe.m.lossy && g.epoch != g.job.epoch {
			pe.m.stats.GoalsLost++
			pe.m.freeGoal(g)
			return
		}
		pe.goalsExecuted++
		pe.m.stats.GoalsExecuted++
		if pe.m.ckpt {
			// Several shards can execute this job's goals inside one
			// window: the position is a commutative sum, advanced
			// atomically and read only at barriers, where the coordinator
			// snapshots it for each checkpoint tick (shardGroup.applyOp).
			g.job.progress.Add(1)
		}
		// The goal's journey is definitively over: record the travel
		// distance (paper Table 3) and the net displacement.
		pe.m.stats.GoalHops.Add(g.Hops)
		pe.m.stats.GoalDist.Add(pe.m.topo.Dist(g.Origin, pe.id))
		pe.m.emit(trace.GoalExecuted, pe.id, -1, g.ID)
		task := g.Task
		if task.IsLeaf() {
			pe.m.respond(pe.id, g, task.Value)
			pe.m.freeGoal(g)
			return
		}
		pe.putPending(g.ID, pe.m.newPending(g, len(task.Kids)))
		for _, kid := range task.Kids {
			child := pe.m.newGoal(kid, g.job, pe.id, g.ID)
			pe.node.HandleEvent(Event{Kind: GoalCreated, Goal: child})
		}
	case itemResponse:
		r := it.resp
		p := pe.pending.get(r.goalID)
		if p == nil {
			if pe.m.lossy {
				// The awaiting task died in a crash (its pending record
				// was purged with the aborted attempt); the value has
				// nowhere to land.
				return
			}
			panic(fmt.Sprintf("machine: PE %d got response for unknown goal %d", pe.id, r.goalID))
		}
		pe.m.stats.RespIntegrated++
		p.vals = append(p.vals, r.value)
		p.remaining--
		if p.remaining == 0 {
			pe.delPending(r.goalID)
			val := p.goal.job.tree.Combine(p.vals)
			pe.m.respond(pe.id, p.goal, val)
			pe.m.freeGoal(p.goal)
			pe.m.freePending(p)
		}
	}
}
