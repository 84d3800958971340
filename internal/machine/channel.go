package machine

import (
	"fmt"

	"cwnsim/internal/sim"
)

// chanState models one communication channel (link or bus) as a serial
// FIFO server: exactly one message occupies the channel at a time;
// requests queue in arrival order. This mirrors ORACLE's "one process
// per communication channel" contention model without materializing a
// queue — because service is FIFO and non-preemptive, tracking the time
// the channel frees up is sufficient.
//
// Channel states are stored by value in Machine.chans — one contiguous
// slice whose addresses stay stable (it never grows after construction)
// — with members a subslice of one flat backing array, so a million-PE
// machine's two million channels cost three allocations, not two
// million scattered ones.
type chanState struct {
	members   []int
	busyUntil sim.Time
	busyTotal sim.Time // scheduled occupancy, including not-yet-elapsed tail
	messages  int64

	// Scenario state. degrade multiplies occupancy durations (0 =
	// nominal, the untouched fast path). down marks a full outage:
	// messages hold at the channel in arrival order and flush when the
	// link is restored.
	degrade float64
	down    bool
	// slot is the offset of this channel's block in Machine.slots (see
	// there); it fills the padding after down.
	slot int32
	held []heldMsg

	// Sharding (zero on one-shard groups). Each shard holds its own
	// copy of every chanState its PEs attach to — a directional
	// half-channel: occupancy accrues on the sending side's copy, and
	// finalize sums the sides.
	// crossTo lists the other shards owning members of this channel
	// (ascending; nil for shard-internal channels), and localMembers
	// counts the members the owning shard holds — a broadcast with
	// localMembers < 2 has no local receivers.
	crossTo      []int
	localMembers int
}

// chanAt resolves a global channel ID against either layout: dense
// machines index chans directly, multi-shard machines go through the
// sparse map. Nil means no owned PE attaches to the channel — possible
// only on the sparse layout, and only for callers (scenario link ops)
// that walk scripted channel IDs rather than an owned PE's attachments.
func (m *Machine) chanAt(ci int) *chanState {
	if m.chanIdx == nil {
		return &m.chans[ci]
	}
	if li := m.chanIdx[ci]; li >= 0 {
		return &m.chans[li]
	}
	return nil
}

// heldMsg is one transmission parked at a downed channel.
type heldMsg struct {
	w   *wireMsg
	dur sim.Time
}

// committedBusy returns the occupancy that has actually elapsed by now.
// busyTotal is charged in full at transmit time, but a run that stops
// with messages still on the wire (MaxTime, or completion with control
// traffic in flight) must not report the unelapsed tail — which is
// exactly busyUntil-now, because a backlogged channel is continuously
// busy from now until it drains.
func (ch *chanState) committedBusy(now sim.Time) sim.Time {
	b := ch.busyTotal
	if ch.busyUntil > now {
		b -= ch.busyUntil - now
	}
	return b
}

// MsgKind classifies traffic for accounting.
type MsgKind uint8

const (
	// MsgGoal is a goal (new work) message.
	MsgGoal MsgKind = iota
	// MsgResponse is a completed goal's value travelling to its parent.
	MsgResponse
	// MsgLoad is the short periodic load-information word.
	MsgLoad
	// MsgControl is a strategy control message (e.g. GM proximity).
	MsgControl
	numMsgKinds
)

func (k MsgKind) String() string {
	switch k {
	case MsgGoal:
		return "goal"
	case MsgResponse:
		return "response"
	case MsgLoad:
		return "load"
	case MsgControl:
		return "control"
	default:
		return "unknown"
	}
}

// wireKind discriminates in-flight wire messages.
type wireKind uint8

const (
	// wireGoal is a single goal hop whose receiver's strategy handles
	// arrival (SendGoal).
	wireGoal wireKind = iota
	// wireGoalRoute is one hop of a shortest-path goal route; only the
	// final PE's strategy sees the arrival (RouteGoal).
	wireGoalRoute
	// wireResp is one hop of a response travelling to its parent PE.
	wireResp
	// wireCtrl is a point-to-point strategy control payload.
	wireCtrl
	// wireLoadBcast is a load broadcast transaction on one channel.
	wireLoadBcast
	// wireCtrlBcast is a control broadcast transaction on one channel.
	wireCtrlBcast
	// wireEnvBcast is a failed/recovered PE's immediate load broadcast
	// carrying the availability notification (its payload is the
	// EventKind; the subject is always the sender): receivers record the
	// load word as usual and FailureAware nodes additionally get the
	// PEFailed/PERecovered event. Counted and charged exactly like the
	// load word it replaces, so sentinel-only strategies see bit-for-bit
	// the PR 3 behaviour.
	wireEnvBcast
)

// wireMsg is one message occupying a channel: the typed, pooled
// replacement for the per-hop closures the hot path used to allocate.
// It implements sim.Action; delivery dispatches on kind. Messages are
// recycled through the machine's free list the moment they deliver.
//
//simlint:pooled
type wireMsg struct {
	m    *Machine //simlint:keep the owning shard: set on every newMsg pop and rebound on cross-shard handoff, so a free-listed message always points at the machine whose list holds it
	kind wireKind
	// ci is the global ID of the channel carrying the hop. Every shard
	// resolves it to its own copy (chanAt), so a message handed across
	// shards delivers against the receiving shard's channel state and
	// receiver slots.
	ci       int32
	goal     *Goal
	resp     response
	payload  any
	from     int // sending PE of this hop
	to       int // receiving PE of this hop
	dst      int // final destination (wireGoalRoute)
	sentLoad int32
}

// newMsg pops a message from the free list (or allocates the pool's
// next entry) with the common fields set: the hop goes out on channel
// ci.
func (m *Machine) newMsg(kind wireKind, ci, from int, sentLoad int) *wireMsg {
	var w *wireMsg
	if n := len(m.msgFree); n > 0 {
		w = m.msgFree[n-1]
		m.msgFree[n-1] = nil
		m.msgFree = m.msgFree[:n-1]
	} else {
		w = m.msgArena.alloc()
	}
	w.m = m // arena-carved messages start zero
	w.kind = kind
	w.ci = int32(ci)
	w.from = from
	w.sentLoad = int32(sentLoad)
	return w
}

// freeMsg clears the message's references and returns it to the pool.
//
//simlint:free
func (m *Machine) freeMsg(w *wireMsg) {
	w.goal = nil
	w.payload = nil
	w.resp = response{}
	m.msgFree = append(m.msgFree, w)
}

// Act delivers the message. It copies what it needs, recycles itself,
// then dispatches — so nested transmissions triggered by the delivery
// (forwarded goals, next response hops) reuse this very message.
func (w *wireMsg) Act() {
	m, kind, ci := w.m, w.kind, int(w.ci)
	g, resp, payload := w.goal, w.resp, w.payload
	from, to, dst, sentLoad := w.from, w.to, w.dst, int(w.sentLoad)
	m.freeMsg(w)

	switch kind {
	case wireGoal:
		m.goalsInTransit--
		rcv := m.pes[to]
		if m.cfg.PiggybackLoad {
			m.recordLoad(m.hopSlot(ci, from, to), to, from, sentLoad)
		}
		if m.lossy && g.epoch != g.job.epoch {
			m.stats.GoalsLost++ // its attempt died in a crash mid-flight
			m.freeGoal(g)
			return
		}
		if m.peFailed[rcv.lx] {
			m.requeueGoal(to, g)
			return
		}
		rcv.node.HandleEvent(Event{Kind: GoalArrived, Goal: g, From: from})
	case wireGoalRoute:
		m.goalsInTransit--
		if m.cfg.PiggybackLoad {
			m.recordLoad(m.hopSlot(ci, from, to), to, from, sentLoad)
		}
		if m.lossy && g.epoch != g.job.epoch {
			m.stats.GoalsLost++
			m.freeGoal(g)
			return
		}
		if to == dst {
			if m.peFailed[m.pes[to].lx] {
				m.requeueGoal(to, g)
				return
			}
			m.pes[to].node.HandleEvent(Event{Kind: GoalArrived, Goal: g, From: from})
			return
		}
		m.routeGoal(to, dst, g)
	case wireResp:
		m.respsInTransit--
		if m.cfg.PiggybackLoad {
			m.recordLoad(m.hopSlot(ci, from, to), to, from, sentLoad)
		}
		m.routeResponse(to, resp)
	case wireCtrl:
		rcv := m.pes[to]
		if m.cfg.PiggybackLoad {
			m.recordLoad(m.hopSlot(ci, from, to), to, from, sentLoad)
		}
		rcv.node.HandleEvent(Event{Kind: Control, From: from, Payload: payload})
	// Broadcast deliveries walk the channel's full member list; on a
	// sharded machine only this shard's members exist in m.pes and own
	// a slot (the cross-shard clone delivers to each remote shard's
	// members there), so the nil or -1 check doubles as the ownership
	// filter.
	case wireLoadBcast:
		ch := m.chanAt(ci)
		row, r := m.senderRow(ch, from), 0
		for _, member := range ch.members {
			if member == from {
				continue
			}
			if x := row[r]; x >= 0 {
				m.recordLoad(x, member, from, sentLoad)
			}
			r++
		}
	case wireCtrlBcast:
		for _, member := range m.chanAt(ci).members {
			if member == from {
				continue
			}
			if rcv := m.pes[member]; rcv != nil {
				rcv.node.HandleEvent(Event{Kind: Control, From: from, Payload: payload})
			}
		}
	case wireEnvBcast:
		ev := payload.(EventKind)
		downNow := ev == PEFailed
		ch := m.chanAt(ci)
		row, r := m.senderRow(ch, from), 0
		for _, member := range ch.members {
			if member == from {
				continue
			}
			x := row[r]
			r++
			if x < 0 {
				continue
			}
			m.recordLoad(x, member, from, sentLoad)
			// Broadcast deliveries must be idempotent (a double-lattice
			// pair hears each transaction twice, once per shared bus):
			// only availability TRANSITIONS raise the event, so a
			// failure-aware node reacts exactly once per failure.
			if m.nbrDown[x] == downNow {
				continue // the second bus's copy of the same transition
			}
			m.nbrDown[x] = downNow
			if rcv := m.pes[member]; rcv.wantsFailure {
				rcv.node.HandleEvent(Event{Kind: ev, From: from})
			}
		}
	}
}

// senderRow returns sender from's block of ch's receiver slots: entry r
// belongs to the r-th member of ch other than from, in member order.
func (m *Machine) senderRow(ch *chanState, from int) []int32 {
	s := len(ch.members) - 1
	i := 0
	for ch.members[i] != from {
		i++
	}
	off := int(ch.slot) + i*s
	return m.slots[off : off+s]
}

// hopSlot returns the receiver slot of a point-to-point hop from -> to
// on channel ci: the index of to's view of from in the neighbor-state
// backings.
func (m *Machine) hopSlot(ci, from, to int) int32 {
	ch := m.chanAt(ci)
	i, k := 0, 0
	for p, member := range ch.members {
		switch member {
		case from:
			i = p
		case to:
			k = p
		}
	}
	if k > i {
		k--
	}
	s := len(ch.members) - 1
	return m.slots[int(ch.slot)+i*s+k]
}

// recordLoad stores load as the latest word PE to heard from neighbor
// from, in to's receiver slot x.
func (m *Machine) recordLoad(x int32, to, from, load int) {
	m.nbrLoad[x] = int32(load)
	m.nbrSeen[x] = m.eng.Now()
	if m.loadEvents {
		if rcv := m.pes[to]; rcv.wantsLoad {
			rcv.node.HandleEvent(Event{Kind: NeighborLoadChanged, From: from, Load: load})
		}
	}
}

// transmit occupies the message's channel for dur units starting when
// it next frees up, then delivers the message. On a downed channel the
// message holds at the sender instead, transmitting (in arrival order)
// when the link is restored.
func (m *Machine) transmit(dur sim.Time, w *wireMsg) {
	ch := m.chanAt(int(w.ci))
	if ch.down {
		ch.held = append(ch.held, heldMsg{w: w, dur: dur})
		return
	}
	end := ch.occupy(m.eng.Now(), dur)
	if m.grp.k > 1 && m.crossShard(ch, end, w) {
		return
	}
	m.eng.AtAction(end, w)
}

// crossShard hands w off to the shard(s) owning its receiver(s),
// reporting whether the message was fully handed off (nothing left to
// deliver locally). Point-to-point kinds route by the receiving PE's
// owner; broadcast kinds clone one message per remote member shard and
// keep the original only if this shard holds another member to hear it.
// Every copy carries only the global channel ID, so it delivers against
// the receiving shard's copy of the channel, whose receiver slots
// filter for that shard's members.
func (m *Machine) crossShard(ch *chanState, end sim.Time, w *wireMsg) bool {
	switch w.kind {
	case wireGoal, wireGoalRoute, wireResp, wireCtrl:
		d := m.grp.part.Assign[w.to]
		if d == m.shardID {
			return false
		}
		m.handOff(d, end, w)
		return true
	default: // wireLoadBcast, wireCtrlBcast, wireEnvBcast
		if ch.crossTo == nil {
			return false
		}
		for _, d := range ch.crossTo {
			c := m.newMsg(w.kind, int(w.ci), w.from, int(w.sentLoad))
			c.payload = w.payload
			m.handOff(d, end, c)
		}
		if ch.localMembers >= 2 {
			return false
		}
		m.freeMsg(w)
		return true
	}
}

// handOff queues w on the per-destination-shard outbox the coordinator
// drains at the next window barrier. Conservative lookahead guarantees
// the delivery time lies beyond the current window — asserted here,
// because a violation would silently deliver into the receiver's past.
func (m *Machine) handOff(dst int, at sim.Time, w *wireMsg) {
	if at <= m.grp.winEnd {
		panic(fmt.Sprintf("machine: cross-shard delivery at t=%d inside window ending %d violates lookahead", at, m.grp.winEnd))
	}
	m.xout[dst] = append(m.xout[dst], xmsg{at: at, w: w})
}

// transmitFunc is transmit for cold paths and tests that want a closure
// instead of a pooled message. It ignores link outages (no caller
// transmits closures on a scripted channel).
func (m *Machine) transmitFunc(ch *chanState, dur sim.Time, deliver func()) sim.Time {
	end := ch.occupy(m.eng.Now(), dur)
	m.eng.At(end, deliver)
	return end
}

// occupy reserves the channel's next dur free units and returns when the
// reservation ends. A degraded channel stretches the occupancy by its
// factor (floor one unit, so a message never becomes free).
func (ch *chanState) occupy(now, dur sim.Time) sim.Time {
	if ch.degrade != 0 {
		dur = sim.Time(float64(dur) * ch.degrade)
		if dur < 1 {
			dur = 1
		}
	}
	start := now
	if ch.busyUntil > start {
		start = ch.busyUntil
	}
	end := start + dur
	ch.busyUntil = end
	ch.busyTotal += dur
	ch.messages++
	return end
}

// pickChannel returns the ID of the least-backlogged channel among the
// candidates (channel IDs), breaking ties toward the lower ID. Bus
// topologies give a PE pair up to two parallel buses; links give
// exactly one. A downed channel is chosen only when every candidate is
// down (the message then holds at it until restore).
func (m *Machine) pickChannel(candidates []int) int {
	best, bestCh := candidates[0], m.chanAt(candidates[0])
	for _, ci := range candidates[1:] {
		ch := m.chanAt(ci)
		if bestCh.down != ch.down {
			if bestCh.down {
				best, bestCh = ci, ch
			}
			continue
		}
		if ch.busyUntil < bestCh.busyUntil {
			best, bestCh = ci, ch
		}
	}
	return best
}
