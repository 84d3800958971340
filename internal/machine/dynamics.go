package machine

import (
	"sort"

	"cwnsim/internal/sim"
)

// This file applies scripted environment events (internal/scenario) to
// a running machine: PE speed changes with in-flight rescaling, compute
// blackouts with drain/requeue semantics, link degradation and outages,
// and arrival-rate shocks. The shard coordinator dispatches each op at
// its window barrier (shardGroup.applyOp); nothing here runs unless
// Config.Scenario is non-empty.

// checkpointTick applies one periodic snapshot tick to the shard: the
// tick instant becomes the durable one (the coordinator records the
// jobs' positions at the same barrier — see shardGroup.applyOp), and
// every live owned PE pays the scripted cost. A busy PE's in-flight
// service extends by the cost; an idle one accrues debt paid at its
// next service start. Failed PEs pay nothing — they hold no state worth
// snapshotting.
func (m *Machine) checkpointTick(cost sim.Time) {
	now := m.eng.Now()
	m.lastCkptAt = now
	if cost <= 0 {
		return
	}
	for lx := range m.peBlock {
		if m.peFailed[lx] {
			continue
		}
		pe := &m.peBlock[lx]
		if m.peBusy[lx] && m.peServiceEnd[lx] > now {
			pe.svc.Stop()
			m.peBusyTime[lx] += cost
			m.peServiceEnd[lx] += cost
			pe.svc.Schedule(m.peServiceEnd[lx] - now)
		} else {
			pe.ckptDebt += cost
		}
	}
}

// nominalSpeed is the PE's configured base speed: PESpeeds[i] on a
// heterogeneous machine, 1 otherwise.
func (pe *PE) nominalSpeed() float64 {
	if s := pe.m.cfg.PESpeeds; s != nil {
		return s[pe.id]
	}
	return 1
}

// setSpeed changes the PE's service speed, rescaling any in-flight
// service proportionally: the remaining duration stretches or shrinks
// by oldSpeed/newSpeed, so work already performed is kept rather than
// restarted. Busy-time accounting is adjusted to the new completion.
func (m *Machine) setSpeed(pe *PE, speed float64) {
	old := pe.Speed()
	if m.peSpeed == nil {
		// First non-nominal speed of the run: materialize the hot-state
		// slice (zero entries read as nominal, like the nil fast path).
		m.peSpeed = make([]float64, m.peHi-m.peLo)
	}
	m.peSpeed[pe.lx] = speed
	if !m.peBusy[pe.lx] || old == speed {
		return
	}
	now := m.eng.Now()
	remaining := m.peServiceEnd[pe.lx] - now
	if remaining <= 0 {
		return // completion already due this instant
	}
	scaled := scaledUnits(float64(remaining) * old / speed)
	if scaled == remaining {
		return
	}
	pe.svc.Stop()
	m.peBusyTime[pe.lx] += scaled - remaining
	m.peServiceEnd[pe.lx] = now + scaled
	pe.svc.Schedule(scaled)
}

// failPE blacks out a PE's compute. The in-service message is cut off:
// a goal is evacuated (its partial work lost), an interrupted response
// goes back to the queue head to be combined first on recovery. Queued
// goals are evacuated to the nearest live PE in queue order; queued
// responses and pending tasks freeze in place, because the tasks
// awaiting them live here. The communication co-processor stays up —
// routing through the PE and control handling still work — and the PE
// advertises FailedLoad so load-comparing strategies steer around it.
func (m *Machine) failPE(pe *PE) {
	if m.peFailed[pe.lx] {
		return
	}
	it, cut := m.takeDown(pe)

	// The refuge is invariant across this evacuation (liveness only
	// changes between events): resolve it once, not per goal.
	refuge := m.nearestLive(pe.id)

	if cut {
		switch it.kind {
		case itemGoal:
			m.stats.ServiceAborts++
			m.evacuateGoal(pe.id, refuge, it.goal)
		case itemResponse:
			pe.pushReadyFront(it)
		}
	}

	// Evacuate queued goals in FIFO order, preserving their relative
	// ages at the refuge PE.
	for i := 0; i < pe.queueLen(); {
		if it := pe.ready.at(i); it.kind == itemGoal {
			g := it.goal
			pe.removeReady(i)
			m.evacuateGoal(pe.id, refuge, g)
		} else {
			i++
		}
	}

	// Tell the neighborhood immediately (one broadcast per attached
	// channel, charged like any load word) rather than waiting for the
	// next periodic tick to advertise FailedLoad. The same transaction
	// carries the PEFailed notification for FailureAware neighbors.
	m.broadcastEnv(pe, PEFailed)
}

// takeDown marks live owned PE pe failed from now on and cuts off the
// item in service, if any: the service timer stops and the unelapsed
// tail leaves the busy time, because it never happens. It returns the
// cut item, cut false when the PE was idle; failPE evacuates it and
// crashPE destroys it.
func (m *Machine) takeDown(pe *PE) (it item, cut bool) {
	if m.grp.live <= 1 {
		panic("machine: scenario would take down every PE")
	}
	now := m.eng.Now()
	m.peFailed[pe.lx] = true
	m.grp.live--
	pe.failedAt = now
	if !m.peBusy[pe.lx] {
		return item{}, false
	}
	it = pe.inService
	pe.inService = item{}
	pe.svc.Stop()
	m.peBusy[pe.lx] = false
	if remaining := m.peServiceEnd[pe.lx] - now; remaining > 0 {
		m.peBusyTime[pe.lx] -= remaining
	}
	return it, true
}

// crashPE is the state-loss variant of failPE: the PE's volatile state
// — queued and in-flight goals, queued responses, pending tasks — is
// destroyed, not evacuated. Every job that lost state here is aborted
// (its surviving goals machine-wide become stale and are discarded
// wherever they surface) and immediately retried from its root, keeping
// the original injection time so the sojourn bill includes the failed
// attempt. The communication co-processor stays up, exactly as for a
// blackout, and neighbors hear PEFailed with the sentinel broadcast.
func (m *Machine) crashPE(pe *PE) {
	if m.peFailed[pe.lx] {
		return
	}
	it, cut := m.takeDown(pe)

	// Collect the jobs losing state here in deterministic encounter
	// order; the aborting flag dedups a job that lost several goals. A
	// stale goal — its attempt already aborted elsewhere, e.g. by an
	// earlier PE of the same correlated strike — is freed but must NOT
	// re-abort the job: that would charge a second abort (and burn a
	// second retry) for a single loss.
	var victims []*jobState
	collect := func(g *Goal) {
		j := g.job
		if g.epoch != j.epoch {
			return
		}
		if !j.aborting {
			j.aborting = true
			victims = append(victims, j)
		}
	}

	if cut && it.kind == itemGoal {
		m.stats.ServiceAborts++
		m.stats.GoalsLost++
		collect(it.goal)
		m.freeGoal(it.goal)
	}
	// An interrupted response integration is simply gone — its waiting
	// task is about to be purged with the pending map.
	for pe.queueLen() > 0 {
		it := pe.popReady()
		if it.kind == itemGoal {
			m.stats.GoalsLost++
			collect(it.goal)
			m.freeGoal(it.goal)
		}
		// Queued responses target local pending tasks; both vanish.
	}
	// Sweep the pending tasks in goal-ID order, not list order: the
	// victim sequence decides abort and re-injection order, and with it
	// goal IDs and queue positions (the crash-sweep-order golden case
	// pins it).
	ps := make([]*pendingTask, 0, pe.PendingTasks())
	for p := pe.pend; p != nil; p = p.next {
		ps = append(ps, p)
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].goal.ID < ps[j].goal.ID })
	for _, p := range ps {
		m.stats.GoalsLost++ // the executed parent's spawn state is lost
		collect(p.goal)
		pe.delPending(p)
		m.freeGoal(p.goal)
		m.freePending(p)
	}

	for _, j := range victims {
		j.aborting = false
		m.abortJob(j)
	}
	m.broadcastEnv(pe, PEFailed)
}

// abortJob propagates a crash loss to the whole job: the attempt epoch
// bumps (staling every surviving goal of the job, including those in
// transit — they are discarded at delivery or service completion), the
// job's queued goals and pending tasks are purged machine-wide, and the
// job is either re-injected from its checkpoint frontier or — once
// Config.RetryLimit is exhausted — abandoned. On a retry, inFlight is
// untouched: the job is still in the system, on a fresh attempt.
func (m *Machine) abortJob(j *jobState) {
	j.epoch++
	m.stats.JobsAborted++
	// Crashes apply at window barriers, when every shard is quiescent:
	// purge each shard's block in shard order.
	for _, sm := range m.grp.machines {
		sm.purgeJob(j)
	}
	if lim := m.cfg.RetryLimit; lim > 0 && j.retries >= lim {
		m.abandonJob(j)
		return
	}
	j.retries++
	m.stats.JobsRetried++
	// A configured backoff delays the re-injection by attempt# ×
	// RetryBackoff; the replay horizon below starts where the retried
	// attempt actually starts.
	var delay sim.Time
	if d := m.cfg.RetryBackoff; d > 0 {
		delay = sim.Time(j.retries) * d
	}
	// Resume from the durable frontier: what the last checkpoint tick
	// snapshotted of this job's position at its barrier (a job injected
	// after the tick has no snapshot; before any tick there is no durable
	// state and the retry recomputes from the root). The frontier becomes
	// the replay horizon — goals of the new attempt starting service
	// before replayUntil run at one unit each (startNext) — and progress
	// restarts for the new attempt.
	if m.ckpt {
		var frontier int64
		if j.ckptSeen == m.lastCkptAt {
			frontier = j.ckptProgress
		}
		j.replayUntil = m.eng.Now() + delay + sim.Time(frontier)
		j.progress.Store(0)
	}
	// The retry re-enters at the usual ingress (redirected if the root
	// PE is down) on the home shard. Not counted as a new injection —
	// the job keeps its identity and injection time. retryPending keeps
	// stall detection honest during a backoff gap.
	home := m.homeMachine()
	if delay > 0 {
		home.retryPending++
		home.eng.At(home.eng.Now()+delay, func() {
			home.retryPending--
			home.injectRoot(j)
		})
		return
	}
	home.injectRoot(j)
}

// purgeJob discards job j's stale queued goals and pending tasks from
// this machine's owned PE block, in PE order. Loss accounting accrues
// to the purging shard's stats.
func (m *Machine) purgeJob(j *jobState) {
	for lx := range m.peBlock {
		pe := &m.peBlock[lx]
		for i := 0; i < pe.queueLen(); {
			if it := pe.ready.at(i); it.kind == itemGoal && it.goal.job == j && it.goal.epoch != j.epoch {
				g := it.goal
				pe.removeReady(i)
				m.stats.GoalsLost++
				m.freeGoal(g)
			} else {
				i++
			}
		}
		// The list's order decides only which pooled objects later
		// gets return; no simulated value depends on it.
		for p := pe.pend; p != nil; {
			next := p.next
			if p.goal.job == j && p.goal.epoch != j.epoch {
				pe.delPending(p)
				m.freeGoal(p.goal)
				m.freePending(p)
			}
			p = next
		}
	}
}

// abandonJob gives up on a job whose retries are exhausted: it leaves
// the system uncompleted — injected but never done, which is exactly
// what Goodput reads. Its purged attempt is already gone; any goals
// still in transit are stale (the epoch bumped) and discarded at
// delivery. Abandoning the last in-flight job ends the run exactly as
// the last completion would.
func (m *Machine) abandonJob(j *jobState) {
	m.stats.JobsAbandoned++
	m.lastLeft = m.eng.Now()
	left := m.grp.inFlight.Add(-1)
	m.freeJob(j)
	m.stopIfIdle(left)
}

// homeMachine returns the shard owning RootPE — where the source,
// arrivals and crash-retry re-injections live.
func (m *Machine) homeMachine() *Machine {
	return m.grp.machines[m.grp.home]
}

// recoverPE ends a blackout or crash: frozen responses (blackout only —
// a crash left nothing behind) resume service and the PE re-advertises
// its real load, with PERecovered for FailureAware neighbors.
func (m *Machine) recoverPE(pe *PE) {
	if !m.peFailed[pe.lx] {
		return
	}
	m.peFailed[pe.lx] = false
	m.grp.live++
	pe.downTime += m.eng.Now() - pe.failedAt
	if !m.peBusy[pe.lx] && pe.queueLen() > 0 {
		pe.startNext()
	}
	m.broadcastEnv(pe, PERecovered)
}

// broadcastEnv is the immediate availability broadcast a failing or
// recovering PE sends: the load word (FailedLoad sentinel or real load)
// plus the typed notification, one transaction per attached channel,
// counted and charged exactly like the plain load broadcast it
// replaces.
func (m *Machine) broadcastEnv(pe *PE, kind EventKind) {
	m.broadcast(pe, wireEnvBcast, MsgLoad, m.cfg.CtrlHopTime, kind)
}

// requeueGoal evacuates a goal arriving at failed PE `from` to the
// nearest live PE, travelling hop by hop on the co-processors like any
// routed goal. Arrival-time redirects resolve the refuge per call —
// liveness genuinely varies between deliveries; batch evacuations in
// failPE resolve it once and use evacuateGoal directly.
func (m *Machine) requeueGoal(from int, g *Goal) {
	m.evacuateGoal(from, m.nearestLive(from), g)
}

// evacuateGoal ships one goal off failed PE `from` to the chosen
// refuge, counting it.
func (m *Machine) evacuateGoal(from, refuge int, g *Goal) {
	m.stats.GoalsRequeued++
	m.routeGoal(from, refuge, g)
}

// nearestLive returns the live PE topologically closest to `from`
// (lowest id on ties), machine-wide from the group's failure map (a
// shard's own block is only part of the picture). Panics when every PE
// is failed — scripts cannot reach that state (failPE refuses to kill
// the last live PE).
func (m *Machine) nearestLive(from int) int {
	best, bestDist := -1, int(^uint(0)>>1)
	for i, failed := range m.grp.failed {
		if failed || i == from {
			continue
		}
		if d := m.topo.Dist(from, i); d < bestDist {
			best, bestDist = i, d
		}
	}
	if best < 0 {
		panic("machine: no live PE to requeue onto")
	}
	return best
}

// setLinkState applies a degradation factor (or outage) to this
// machine's copies of the channels between a and b; factor 0 without
// down restores them to nominal. A positive factor on a downed channel
// brings it back up degraded — the scripted state is absolute, not
// sticky — so messages held during the outage flush at the new
// (stretched) pace. Every shard holds its own channel copies and
// applies the mutation itself (a bus channel's members can span shards
// beyond the named endpoints).
func (m *Machine) setLinkState(a, b int, factor float64, down bool) {
	for _, ci := range m.topo.AppendChannelsBetween(nil, a, b) {
		lc := m.chanLocal(ci)
		if lc < 0 {
			continue // no owned PE attaches to this channel
		}
		if down {
			m.hot[lc].down = true
			continue
		}
		m.chans[lc].degrade = factor
		m.hot[lc].degraded = factor != 0
		m.bringUp(lc)
	}
}

// bringUp ends local channel lc's outage, transmitting the held
// messages and load words in arrival order; a channel that is not down
// is untouched.
func (m *Machine) bringUp(lc int32) {
	if !m.hot[lc].down {
		return
	}
	m.hot[lc].down = false
	ch := &m.chans[lc]
	held := ch.held
	ch.held = nil
	for _, h := range held {
		if h.w == nil {
			m.sendWord(h.word, h.dur)
			continue
		}
		m.transmit(h.dur, h.w)
	}
}
