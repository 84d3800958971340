package machine

import (
	"fmt"
	"testing"

	"cwnsim/internal/sim"
	"cwnsim/internal/topology"
	"cwnsim/internal/workload"
)

// slotTopologies is every topology family the receiver-slot table must
// index: links of both forms, DLM buses (member lists not ascending,
// pairs sharing two buses), a global bus, and the irregular kinds.
func slotTopologies() []*topology.Topology {
	return []*topology.Topology{
		topology.NewGrid(6, 5), topology.NewGridImplicit(6, 5),
		topology.NewTorus(6, 6), topology.NewTorusImplicit(6, 6),
		topology.NewHypercube(5), topology.NewHypercubeImplicit(5),
		topology.NewDLM(8, 8, 4), topology.NewDLM(4, 4, 4),
		topology.NewRing(9), topology.NewStar(7), topology.NewComplete(6), topology.NewBusGlobal(8),
		topology.NewChordalRing(16, 4), topology.NewTorus3D(3, 3, 4),
	}
}

// TestShardReceiverSlots pins the receiver-slot table on every shard of
// 1-, 2- and 4-shard machines: a channel of span s owns s·(s-1)
// contiguous entries, and the entry of each ordered (sender, receiver)
// pair addresses the receiver's view of the sender — the entry its
// neighbor-list index selects — or is -1 exactly where the shard does
// not own the receiver. It pins each PE's fan-out table against the
// same search.
func TestShardReceiverSlots(t *testing.T) {
	for _, topo := range slotTopologies() {
		for _, k := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/shards%d", topo.Name(), k), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Shards = k
				m := New(topo, workload.NewFib(2), keepLocal{}, cfg)
				for _, sh := range m.grp.machines {
					checkSlots(t, sh)
				}
			})
		}
	}
}

func checkSlots(t *testing.T, m *Machine) {
	t.Helper()
	next := 0
	for li := range m.chans {
		ch := &m.chans[li]
		ci := li
		if m.chanIDs != nil {
			ci = int(m.chanIDs[li])
		}
		if int(ch.slot) != next {
			t.Fatalf("shard %d channel %d: slot block at %d, want %d", m.shardID, ci, ch.slot, next)
		}
		s := len(ch.members)
		next += s * (s - 1)
		for _, from := range ch.members {
			for _, to := range ch.members {
				if to == from {
					continue
				}
				x := m.hopSlot(ci, from, to)
				rcv := m.pes[to]
				if rcv == nil {
					if x != -1 {
						t.Fatalf("shard %d channel %d: %d->%d slot %d, want -1 for an unowned receiver", m.shardID, ci, from, to, x)
					}
					continue
				}
				// The slot must alias exactly the receiver's view of the
				// sender: a mark written through it shows up there.
				i := rcv.nbrIdx(from)
				if x < 0 || i < 0 {
					t.Fatalf("shard %d channel %d: %d->%d slot %d, neighbor index %d", m.shardID, ci, from, to, x, i)
				}
				old := m.nbrLoad[x]
				m.nbrLoad[x] = 12345
				mark := rcv.nbrLoad[i]
				m.nbrLoad[x] = old
				if mark != 12345 {
					t.Fatalf("shard %d channel %d: %d->%d slot %d does not address PE %d's view of PE %d", m.shardID, ci, from, to, x, to, from)
				}
			}
		}
	}
	if next != len(m.slots) {
		t.Fatalf("shard %d: slot table holds %d entries, its channels need %d", m.shardID, len(m.slots), next)
	}
	// Each owned PE's fan entries list its channels in ascending ID
	// order, each with the PE's own row: entry r of the row is the slot
	// of the r-th other member, the one hopSlot finds by search.
	for lx := range m.peBlock {
		pe := &m.peBlock[lx]
		chs := m.topo.AppendChannelsOf(nil, pe.id)
		fan := m.fanRow(lx)
		if len(fan) != len(chs) {
			t.Fatalf("shard %d PE %d: fan table has %d entries, %d channels attach", m.shardID, pe.id, len(fan), len(chs))
		}
		for i, f := range fan {
			members := m.chanAt(chs[i]).members
			if m.chanID(f.lc) != chs[i] || int(f.n) != len(members)-1 {
				t.Fatalf("shard %d PE %d: fan entry %d is %+v, want channel %d with %d receivers", m.shardID, pe.id, i, f, chs[i], len(members)-1)
			}
			r := 0
			for _, to := range members {
				if to == pe.id {
					continue
				}
				if got, want := m.slots[int(f.row)+r], m.hopSlot(chs[i], pe.id, to); got != want {
					t.Fatalf("shard %d PE %d channel %d: row entry %d is slot %d, want %d (receiver %d)", m.shardID, pe.id, chs[i], r, got, want, to)
				}
				r++
			}
		}
	}
}

// TestShardBusBroadcastUsesReceiverChannel sends one load word on a DLM
// bus whose members span both shards of a 2-shard machine, through the
// real path (the sender's fan entry, sendWord, outbox, barrier drain),
// and checks that every other member — on either shard — learned
// exactly that word and that no other neighbor view changed. A word
// delivered with the sender's row instead of the receiving shard's
// would write through the sender's slot table into the receiving
// shard's backings.
func TestShardBusBroadcastUsesReceiverChannel(t *testing.T) {
	topo := topology.NewDLM(8, 8, 4)
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.LoadInterval = 0 // no tickers: the test's word is the only traffic
	g := New(topo, workload.NewFib(2), keepLocal{}, cfg).grp
	ci := -1
	var from int
	for _, c := range g.part.Cross {
		members := topo.AppendChannelMembers(nil, c)
		// A sender with a bus-mate on its own shard keeps the original
		// message as well as handing off a clone.
		local := 0
		for _, pe := range members {
			if g.part.Assign[pe] == g.part.Assign[members[0]] {
				local++
			}
		}
		if local >= 2 {
			ci, from = c, members[0]
			break
		}
	}
	if ci < 0 {
		t.Fatal("no boundary bus with two members on one shard")
	}
	src := g.owner(from)
	const load = 7
	wd := loadWord{from: int32(from), load: load}
	for _, f := range src.fanRow(from - src.peLo) {
		if src.chanID(f.lc) == ci {
			wd.fan = f
		}
	}
	if wd.fan.n == 0 {
		t.Fatalf("PE %d's fan table has no entry for channel %d", from, ci)
	}
	src.sendWord(wd, cfg.CtrlHopTime)
	g.drain()

	receiver := map[int]bool{}
	for _, pe := range topo.AppendChannelMembers(nil, ci) {
		if pe != from {
			receiver[pe] = true
		}
	}
	// check runs every shard to time t0 and walks every view: once the
	// word is due, each receiver's view of the sender holds its load, and
	// no other view was heard. It returns the shards the word reached.
	check := func(t0 sim.Time, due bool) map[int]bool {
		shards := map[int]bool{}
		for _, m := range g.machines {
			m.eng.RunUntil(t0)
		}
		for id := 0; id < topo.Size(); id++ {
			pe := g.owner(id).pes[id]
			for _, nb := range pe.Neighbors() {
				l, heard := pe.KnownLoad(nb)
				if due && receiver[id] && nb == from {
					shards[g.part.Assign[id]] = true
					if !heard || l != load {
						t.Errorf("t=%d: PE %d knows PE %d's load as %d (heard %v), want %d", t0, id, from, l, heard, load)
					}
					continue
				}
				if heard {
					t.Errorf("t=%d: PE %d heard PE %d's load as %d", t0, id, nb, l)
				}
			}
		}
		return shards
	}
	check(cfg.CtrlHopTime-1, false)
	if shards := check(10*cfg.CtrlHopTime, true); len(shards) != 2 {
		t.Fatalf("the broadcast reached receivers on %d shards, want 2", len(shards))
	}
}
