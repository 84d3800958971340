package machine

import (
	"fmt"
	"math/bits"

	"cwnsim/internal/sim"
)

// chanState models one communication channel (link or bus) as a serial
// FIFO server: exactly one message occupies the channel at a time;
// requests queue in arrival order. This mirrors ORACLE's "one process
// per communication channel" contention model without materializing a
// queue — because service is FIFO and non-preemptive, tracking the time
// the channel frees up is sufficient.
//
// A channel's state is split in two. Its hot record (chanHot) is what
// every send reads and writes; chanState holds the rest, which only
// routing, bus deliveries, link ops and construction read. Both are
// stored by value in parallel slices on the Machine (hot and chans),
// indexed by the channel's local index — its global ID on a one-shard
// group — which never grow after construction, with members a subslice
// of one flat backing array, so a million-PE machine's two million
// channels cost a few allocations, not two million scattered ones.
type chanState struct {
	members []int

	// Scenario state. degrade multiplies occupancy durations while the
	// hot record's degraded flag is set. held parks the messages and
	// load words sent during an outage, in arrival order, until the
	// link is restored.
	degrade float64
	// slot is the offset of this channel's block in Machine.slots (see
	// there).
	slot int32
	held []heldMsg

	// Sharding (zero on one-shard groups). Each shard holds its own
	// copy of every channel its PEs attach to — a directional
	// half-channel: occupancy accrues on the sending side's copy, and
	// finalize sums the sides.
	// crossTo lists the other shards owning members of this channel
	// (ascending; nil for shard-internal channels).
	crossTo []int
}

// chanHot is the part of a channel's state the send path touches: 32
// bytes, two channels to a cache line, so a broadcast reads one dense
// record per attached channel instead of a cold chanState.
type chanHot struct {
	busyUntil sim.Time
	busyTotal sim.Time // scheduled occupancy, including not-yet-elapsed tail
	messages  int64

	// down marks a full outage (sends hold in chanState.held);
	// degraded says chanState.degrade stretches occupancy. cross is set
	// when another shard owns a member (chanState.crossTo), and local
	// when this shard owns a receiver besides the sender: always on a
	// shard-internal channel, on a crossing one only when this shard
	// owns two members or more.
	down, degraded, cross, local bool
}

// chanLocal resolves a global channel ID to its local index in chans
// and hot: the ID itself on a one-shard group, the sparse map's entry
// on a multi-shard one, where -1 means no owned PE attaches to the
// channel — possible only for callers (scenario link ops) that walk
// scripted channel IDs rather than an owned PE's attachments.
func (m *Machine) chanLocal(ci int) int32 {
	if m.chanIdx == nil {
		return int32(ci)
	}
	return m.chanIdx[ci]
}

// chanID maps a local channel index back to its global ID.
func (m *Machine) chanID(li int32) int {
	if m.chanIDs == nil {
		return int(li)
	}
	return int(m.chanIDs[li])
}

// chanAt returns the cold state of global channel ci, or nil when no
// owned PE attaches to it (see chanLocal).
func (m *Machine) chanAt(ci int) *chanState {
	if li := m.chanLocal(ci); li >= 0 {
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
func (h *chanHot) committedBusy(now sim.Time) sim.Time {
	b := h.busyTotal
	if h.busyUntil > now {
		b -= h.busyUntil - now
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
	// wireGoal is one hop of a goal bound for PE dst: a neighbor hop
	// (SendGoal) or one hop of a shortest-path route (RouteGoal); only
	// dst's strategy sees the arrival.
	wireGoal wireKind = iota
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
	// resolves it to its own copy (chanLocal), so a message handed across
	// shards delivers against the receiving shard's channel state and
	// receiver slots.
	ci       int32
	goal     *Goal
	resp     response
	payload  any
	from     int // sending PE of this hop
	to       int // receiving PE of this hop
	dst      int // final destination (wireGoal)
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
		m.recordLoad(m.hopSlot(ci, from, to), sentLoad)
		if m.lossy && g.epoch != g.job.epoch {
			m.stats.GoalsLost++ // its attempt died in a crash mid-flight
			m.freeGoal(g)
			return
		}
		if to != dst {
			m.routeGoal(to, dst, g)
			return
		}
		rcv := m.pes[to]
		if m.peFailed[rcv.lx] {
			m.requeueGoal(to, g)
			return
		}
		rcv.node.HandleEvent(Event{Kind: GoalArrived, Goal: g, From: from})
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
// member list; the load-word path reads rows from the fan table.
func (ch *chanState) rowOf(from int) int32 {
	i := 0
	for ch.members[i] != from {
		i++
	}
	return ch.slot + int32(i*(len(ch.members)-1))
}

// fanEntry is one attached channel of a PE's broadcast fan-out table:
// the channel's local index (into chans and hot; its global ID on a
// one-shard group) and the PE's row of its receiver slots (offset and
// length in Machine.slots). The machine's flat fan table holds every
// owned PE's entries, ascending by channel ID; buildSlots fills them.
type fanEntry struct {
	lc, row, n int32
}

// fanOf returns sender from's fan entry for global channel ci on this
// shard.
func (m *Machine) fanOf(ci, from int) fanEntry {
	lc := m.chanLocal(ci)
	ch := &m.chans[lc]
	return fanEntry{lc: lc, row: ch.rowOf(from), n: int32(len(ch.members) - 1)}
}

// fanRow returns owned PE lx's fan entries.
func (m *Machine) fanRow(lx int) []fanEntry {
	return m.fan[m.fanOff[lx]:m.fanOff[lx+1]]
}

// loadWord is one periodic load word waiting in a downed channel's
// held list: the sender's fan entry for the channel, the sender and the
// load it advertises. It is never a wire message; a word handed to
// another shard travels in its outbox entry (xmsg), whose drain looks
// up the receiving shard's row.
type loadWord struct {
	fan        fanEntry
	from, load int32
}

// batchBits is how many fan entries one batched delivery can name: the
// width of its payload's mask (see wordBatch).
const batchBits = 32

// broadcastLoad sends owned PE lx's current load to all its neighbors:
// one load word per attached channel, in fan order over the PE's fan
// entries fan[lo:hi] (a single bus transaction reaches all bus-mates; a
// neighbor sharing two buses hears it twice, harmlessly). The words
// this shard delivers are batched: one payload event per distinct
// delivery instant, in each batchBits-wide window of the fan, naming
// the window's first fan entry, a mask of the entries delivering then
// and the load. Nothing else is scheduled while a broadcast runs, so
// one instant's words would sit back to back in its FIFO anyway, and
// one event firing them in fan order (wordBatch) reproduces every
// delivery.
func (m *Machine) broadcastLoad(lx int, lo, hi int32) {
	m.stats.MsgCounts[MsgLoad] += int64(hi - lo)
	from, load, dur := int32(m.peLo+lx), m.loadOf(lx), m.cfg.CtrlHopTime
	for base := lo; base < hi; base += batchBits {
		var pend, mask uint32
		var at sim.Time
		for k, f := range m.fan[base:min(hi, base+batchBits)] {
			// A word on a downed or crossing channel takes sendLoad's
			// whole path; the rest only occupy their channel.
			var end sim.Time
			if h := &m.hot[f.lc]; !h.down && !h.cross {
				end = m.occupy(h, f.lc, dur)
			} else {
				var ok bool
				if end, ok = m.sendLoad(f, from, load, dur); !ok {
					continue
				}
			}
			if pend == 0 {
				at = end
			}
			if end == at {
				mask |= 1 << k
			}
			pend |= 1 << k
		}
		// Entries in mask are due at `at`. A word's delivery instant is
		// its channel's busy-until: the broadcast sends one word per
		// channel.
		for pend != 0 {
			m.eng.AtPayload(at, &m.batches, uint64(base)<<32|uint64(mask), uint64(uint32(load)))
			if pend &^= mask; pend == 0 {
				break
			}
			at, mask = m.hot[m.fan[base+int32(bits.TrailingZeros32(pend))].lc].busyUntil, 0
			for rest := pend; rest != 0; rest &= rest - 1 {
				if k := bits.TrailingZeros32(rest); m.hot[m.fan[base+int32(k)].lc].busyUntil == at {
					mask |= 1 << k
				}
			}
		}
	}
}

// sendLoad transmits one load word on fan entry f's channel: it
// occupies the channel for dur units and hands a copy to every other
// shard owning a member. It reports when the word is due at this
// shard's receivers, ok false when none of them hears it: the channel
// is down (the word holds until the link is restored), or this shard
// owns no receiver.
func (m *Machine) sendLoad(f fanEntry, from, load int32, dur sim.Time) (end sim.Time, ok bool) {
	h := &m.hot[f.lc]
	if h.down {
		m.hold(f.lc, heldMsg{dur: dur, word: loadWord{fan: f, from: from, load: load}})
		return 0, false
	}
	end = m.occupy(h, f.lc, dur)
	if h.cross {
		m.handOffWord(f.lc, end, from, load)
		return end, h.local
	}
	return end, true
}

// sendWord sends a held load word once its channel is restored; unlike
// a broadcast's words, its local delivery is an event of its own.
func (m *Machine) sendWord(wd loadWord, dur sim.Time) {
	if end, ok := m.sendLoad(wd.fan, wd.from, wd.load, dur); ok {
		m.wordAt(end, wd.fan, wd.load)
	}
}

// handOffWord queues a load word sent on local channel lc for every
// other shard owning a member, due at `at`.
func (m *Machine) handOffWord(lc int32, at sim.Time, from, load int32) {
	ci := int32(m.chanID(lc))
	for _, d := range m.chans[lc].crossTo {
		m.handOff(d, xmsg{at: at, ci: ci, from: from, load: load})
	}
}

// hold parks a transmission at downed local channel lc.
func (m *Machine) hold(lc int32, h heldMsg) {
	ch := &m.chans[lc]
	ch.held = append(ch.held, h)
}

// wordAt schedules one load word's delivery at time at: one payload
// event carrying the receivers' slot row f and the load. Words flushed
// from a held list or drained from another shard's outbox arrive one at
// a time, and take this path.
func (m *Machine) wordAt(at sim.Time, f fanEntry, load int32) {
	m.eng.AtPayload(at, &m.words, uint64(f.row)<<32|uint64(f.n), uint64(uint32(load)))
}

// wordSink is the Action behind every single load-word delivery on its
// machine; each event's payload says which row hears which load.
type wordSink struct{ m *Machine }

// Act writes the load into every view the row addresses, skipping the
// -1 entries of receivers another shard owns.
func (d *wordSink) Act() {
	m := d.m
	rowN, load := m.eng.Payload()
	m.recordRow(int32(rowN>>32), int32(uint32(rowN)), int32(load))
}

// wordBatch is the Action behind every batched load-word delivery on
// its machine (see broadcastLoad): each event's payload is the offset
// in the fan table of its window's first entry, the mask of the
// window's entries delivering now, and the load.
type wordBatch struct{ m *Machine }

// Act delivers the masked entries' words in fan order. Each word
// beyond the first counts as the event it would be on its own
// (Machine.batchExtra), so Stats.Events counts every delivery.
func (d *wordBatch) Act() {
	m := d.m
	p0, load := m.eng.Payload()
	fan, mask := m.fan[p0>>32:], uint32(p0)
	m.batchExtra += uint64(bits.OnesCount32(mask) - 1)
	for ; mask != 0; mask &= mask - 1 {
		f := fan[bits.TrailingZeros32(mask)]
		m.recordRow(f.row, f.n, int32(load))
	}
}

// recordRow stores load as the latest word heard in the n receiver
// slots from offset row of the slot table, skipping the -1 entries of
// receivers another shard owns.
func (m *Machine) recordRow(row, n, load int32) {
	for _, x := range m.slots[row:][:n] {
		if x >= 0 {
			m.nbrLoad[x] = load
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
}

// transmit occupies the message's channel for dur units starting when
// it next frees up, then delivers the message. On a downed channel the
// message holds at the sender instead, transmitting (in arrival order)
// when the link is restored.
func (m *Machine) transmit(dur sim.Time, w *wireMsg) {
	lc := m.chanLocal(int(w.ci))
	h := &m.hot[lc]
	if h.down {
		m.hold(lc, heldMsg{w: w, dur: dur})
		return
	}
	end := m.occupy(h, lc, dur)
	if m.grp.k > 1 && m.crossShard(h, lc, end, w) {
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
func (m *Machine) crossShard(h *chanHot, lc int32, end sim.Time, w *wireMsg) bool {
	switch w.kind {
	case wireGoal, wireResp, wireCtrl:
		d := m.grp.part.Assign[w.to]
		if d == m.shardID {
			return false
		}
		m.handOff(d, xmsg{at: end, w: w})
		return true
	default: // wireCtrlBcast, wireEnvBcast
		if !h.cross {
			return false
		}
		for _, d := range m.chans[lc].crossTo {
			c := m.newMsg(w.kind, int(w.ci), w.from, int(w.sentLoad))
			c.payload = w.payload
			m.handOff(d, xmsg{at: end, w: c})
		}
		if h.local {
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

// occupy reserves local channel lc's next dur free units, h its hot
// record, and returns when the reservation ends. A degraded channel
// stretches the occupancy by its factor.
func (m *Machine) occupy(h *chanHot, lc int32, dur sim.Time) sim.Time {
	if h.degraded {
		dur = scaledUnits(float64(dur) * m.chans[lc].degrade)
	}
	end := max(m.eng.Now(), h.busyUntil) + dur
	h.busyUntil = end
	h.busyTotal += dur
	h.messages++
	return end
}

// pickChannel returns the ID of the least-backlogged channel among the
// candidates (channel IDs), breaking ties toward the lower ID. Bus
// topologies give a PE pair up to two parallel buses; links give
// exactly one. A downed channel is chosen only when every candidate is
// down (the message then holds at it until restore).
func (m *Machine) pickChannel(candidates []int) int {
	best, bh := candidates[0], &m.hot[m.chanLocal(candidates[0])]
	for _, ci := range candidates[1:] {
		h := &m.hot[m.chanLocal(ci)]
		if bh.down != h.down {
			if bh.down {
				best, bh = ci, h
			}
			continue
		}
		if h.busyUntil < bh.busyUntil {
			best, bh = ci, h
		}
	}
	return best
}
