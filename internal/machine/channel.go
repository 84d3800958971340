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

// heldMsg is one transmission parked at a downed channel: a wire
// message, or (w nil) a load word, held by value.
type heldMsg struct {
	w    *wireMsg
	dur  sim.Time
	word loadWord
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
// Periodic load words are not wire messages (see loadWord).
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

// newMsg takes a message from the pool with the common fields set: the
// hop goes out on channel ci.
func (m *Machine) newMsg(kind wireKind, ci, from int, sentLoad int) *wireMsg {
	w := m.msgs.get()
	w.m = m // carved messages start zero
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
	m.msgs.put(w)
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
		m.recordLoad(m.hopSlot(ci, from, to), sentLoad)
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
		m.recordLoad(m.hopSlot(ci, from, to), sentLoad)
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
		m.recordLoad(m.hopSlot(ci, from, to), sentLoad)
		m.routeResponse(to, resp)
	case wireCtrl:
		rcv := m.pes[to]
		m.recordLoad(m.hopSlot(ci, from, to), sentLoad)
		rcv.node.HandleEvent(Event{Kind: Control, From: from, Payload: payload})
	// Broadcast deliveries walk the channel's full member list; on a
	// sharded machine only this shard's members exist in m.pes and own
	// a slot (the cross-shard clone delivers to each remote shard's
	// members there), so the nil or -1 check doubles as the ownership
	// filter.
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
		row, r := m.slots[ch.rowOf(from):][:len(ch.members)-1], 0
		for _, member := range ch.members {
			if member == from {
				continue
			}
			x := row[r]
			r++
			if x < 0 {
				continue
			}
			m.recordLoad(x, sentLoad)
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

// rowOf returns the offset in Machine.slots of sender from's row of
// ch's receiver slots: len(members)-1 entries, entry r belonging to the
// r-th member of ch other than from, in member order. It scans the
// member list; the load-word path reads rows from the PEs' fan tables.
func (ch *chanState) rowOf(from int) int32 {
	i := 0
	for ch.members[i] != from {
		i++
	}
	return ch.slot + int32(i*(len(ch.members)-1))
}

// fanEntry is one attached channel of a PE's broadcast fan-out table:
// the channel's global ID and the PE's row of its receiver slots
// (offset and length in Machine.slots). buildSlots fills the table.
type fanEntry struct {
	ci, row, n int32
}

// fanOf returns sender from's fan entry for channel ci on this shard.
func (m *Machine) fanOf(ci, from int) fanEntry {
	ch := m.chanAt(ci)
	return fanEntry{ci: int32(ci), row: ch.rowOf(from), n: int32(len(ch.members) - 1)}
}

// loadWord is one periodic load word: the sender's fan entry for the
// channel carrying it, the sender and the load it advertises. It is
// never a wire message. Delivery needs only the receivers' row and the
// load, so a word rides the engine as one payload event per channel
// (wordAt), and waits by value wherever it waits: in a downed
// channel's held list, or in the outbox to another shard, whose drain
// replaces the row with the receiving shard's own.
type loadWord struct {
	fan        fanEntry
	from, load int32
}

// sendWord is transmit for a load word: it occupies the word's channel
// for dur units, hands a copy to every other shard owning a member, and
// schedules the local delivery when this shard owns another member. On
// a downed channel the word holds until the link is restored.
func (m *Machine) sendWord(wd loadWord, dur sim.Time) {
	ch := m.chanAt(int(wd.fan.ci))
	if ch.down {
		ch.held = append(ch.held, heldMsg{dur: dur, word: wd})
		return
	}
	end := ch.occupy(m.eng.Now(), dur)
	if ch.crossTo != nil {
		for _, d := range ch.crossTo {
			m.handOff(d, xmsg{at: end, word: wd})
		}
		if ch.localMembers < 2 {
			return
		}
	}
	m.wordAt(end, wd.fan, wd.load)
}

// wordAt schedules a load word's delivery at time at: one payload event
// carrying the receivers' slot row f and the load.
func (m *Machine) wordAt(at sim.Time, f fanEntry, load int32) {
	m.eng.AtPayload(at, &m.words, uint64(f.row)<<32|uint64(f.n), uint64(uint32(load)))
}

// wordSink is the one Action behind every load-word delivery on its
// machine; each event's payload says which row hears which load.
type wordSink struct{ m *Machine }

// Act writes the load into every view the row addresses, skipping the
// -1 entries of receivers another shard owns.
func (d *wordSink) Act() {
	m := d.m
	rowN, load := m.eng.Payload()
	for _, x := range m.slots[rowN>>32:][:uint32(rowN)] {
		if x >= 0 {
			m.recordLoad(x, int(int32(load)))
		}
	}
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

// recordLoad stores load as the latest word heard in receiver slot x.
func (m *Machine) recordLoad(x int32, load int) {
	m.nbrLoad[x] = int32(load)
	m.nbrSeen[x] = m.eng.Now()
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
		m.handOff(d, xmsg{at: end, w: w})
		return true
	default: // wireCtrlBcast, wireEnvBcast
		if ch.crossTo == nil {
			return false
		}
		for _, d := range ch.crossTo {
			c := m.newMsg(w.kind, int(w.ci), w.from, int(w.sentLoad))
			c.payload = w.payload
			m.handOff(d, xmsg{at: end, w: c})
		}
		if ch.localMembers >= 2 {
			return false
		}
		m.freeMsg(w)
		return true
	}
}

// handOff queues x on the per-destination-shard outbox the coordinator
// drains at the next window barrier. Conservative lookahead guarantees
// the delivery time lies beyond the current window — asserted here,
// because a violation would silently deliver into the receiver's past.
func (m *Machine) handOff(dst int, x xmsg) {
	if x.at <= m.grp.winEnd {
		panic(fmt.Sprintf("machine: cross-shard delivery at t=%d inside window ending %d violates lookahead", x.at, m.grp.winEnd))
	}
	m.xout[dst] = append(m.xout[dst], x)
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
// factor.
func (ch *chanState) occupy(now, dur sim.Time) sim.Time {
	if ch.degrade != 0 {
		dur = scaledUnits(float64(dur) * ch.degrade)
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
