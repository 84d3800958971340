package machine

import (
	"fmt"
	"testing"

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
// not own the receiver.
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
				m.nbrSeen[x] = 12345
				seen := rcv.nbrSeen[i]
				m.nbrSeen[x] = -1
				if seen != 12345 {
					t.Fatalf("shard %d channel %d: %d->%d slot %d does not address PE %d's view of PE %d", m.shardID, ci, from, to, x, to, from)
				}
			}
		}
	}
	if next != len(m.slots) {
		t.Fatalf("shard %d: slot table holds %d entries, its channels need %d", m.shardID, len(m.slots), next)
	}
}

// TestShardBusBroadcastUsesReceiverChannel sends one load word on a DLM
// bus whose members span both shards of a 2-shard machine, through the
// real handoff (transmit, outbox, barrier drain), and checks that every
// other member — on either shard — learned exactly that word and that
// no other neighbor view changed. A clone delivered against the
// sending shard's channel copy would write through the sender's slot
// table into the receiving shard's backings.
func TestShardBusBroadcastUsesReceiverChannel(t *testing.T) {
	topo := topology.NewDLM(8, 8, 4)
	cfg := DefaultConfig()
	cfg.Shards = 2
	cfg.LoadInterval = 0 // no tickers: the test's word is the only traffic
	g := New(topo, workload.NewFib(2), keepLocal{}, cfg).grp
	ci := -1
	var from int
	for _, c := range g.part.Cross {
		members := topo.ChannelAt(c).Members
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
	src.transmit(cfg.CtrlHopTime, src.newMsg(wireLoadBcast, ci, from, load))
	g.drain()
	for _, m := range g.machines {
		m.eng.RunUntil(10 * cfg.CtrlHopTime)
	}

	heard := map[int]bool{}
	for _, pe := range topo.ChannelAt(ci).Members {
		if pe != from {
			heard[pe] = true
		}
	}
	shards := map[int]bool{}
	for id := 0; id < topo.Size(); id++ {
		pe := g.owner(id).pes[id]
		for _, nb := range pe.Neighbors() {
			l, at := pe.KnownLoad(nb)
			if heard[id] && nb == from {
				shards[g.part.Assign[id]] = true
				if l != load || at != cfg.CtrlHopTime {
					t.Errorf("PE %d knows PE %d's load as %d at t=%d, want %d at t=%d", id, from, l, at, load, cfg.CtrlHopTime)
				}
				continue
			}
			if at != -1 {
				t.Errorf("PE %d's view of PE %d changed (load %d at t=%d)", id, nb, l, at)
			}
		}
	}
	if len(shards) != 2 {
		t.Fatalf("the broadcast reached receivers on %d shards, want 2", len(shards))
	}
}
