package topology

import "testing"

// partitionFixtures covers every topology family the package builds.
func partitionFixtures() []*Topology {
	return []*Topology{
		NewGrid(8, 8),
		NewGrid(3, 7),
		NewTorus(5, 5),
		NewTorus3D(3, 3, 3),
		NewDLM(6, 6, 3),
		NewHypercube(6),
		NewRing(17),
		NewChordalRing(16, 5),
		NewComplete(9),
		NewStar(9),
		NewTree(2, 4),
		NewBusGlobal(7),
	}
}

func TestPartitionCoversDisjointly(t *testing.T) {
	for _, topo := range partitionFixtures() {
		for _, k := range []int{1, 2, 3, 4, 7, 8} {
			if k > topo.Size() {
				continue
			}
			p := topo.Partition(k)
			if p.Shards != k || len(p.Assign) != topo.Size() || len(p.Starts) != k+1 {
				t.Fatalf("%s k=%d: malformed partition %+v", topo.Name(), k, p)
			}
			// Starts must be a strictly increasing full cover: every PE
			// in exactly one shard, every shard non-empty.
			if p.Starts[0] != 0 || p.Starts[k] != topo.Size() {
				t.Fatalf("%s k=%d: starts %v do not span [0,%d)", topo.Name(), k, p.Starts, topo.Size())
			}
			for s := 0; s < k; s++ {
				if p.Starts[s+1] <= p.Starts[s] {
					t.Fatalf("%s k=%d: shard %d empty (starts %v)", topo.Name(), k, s, p.Starts)
				}
				for pe := p.Starts[s]; pe < p.Starts[s+1]; pe++ {
					if p.Assign[pe] != s {
						t.Fatalf("%s k=%d: PE %d assigned to %d, block says %d", topo.Name(), k, pe, p.Assign[pe], s)
					}
				}
			}
			// Balance: contiguous blocks must differ by at most one PE.
			lo, hi := topo.Size(), 0
			for s := 0; s < k; s++ {
				n := p.Starts[s+1] - p.Starts[s]
				if n < lo {
					lo = n
				}
				if n > hi {
					hi = n
				}
			}
			if hi-lo > 1 {
				t.Fatalf("%s k=%d: imbalanced blocks (sizes span %d..%d)", topo.Name(), k, lo, hi)
			}
		}
	}
}

func TestPartitionCrossChannels(t *testing.T) {
	for _, topo := range partitionFixtures() {
		for _, k := range []int{1, 2, 3, 4, 7, 8} {
			if k > topo.Size() {
				continue
			}
			p := topo.Partition(k)
			cross := make(map[int]bool, len(p.Cross))
			prev := -1
			for _, ci := range p.Cross {
				if ci <= prev {
					t.Fatalf("%s k=%d: Cross not ascending/unique: %v", topo.Name(), k, p.Cross)
				}
				prev = ci
				cross[ci] = true
			}
			for ci := 0; ci < topo.NumChannels(); ci++ {
				shards := make(map[int]bool)
				for _, pe := range topo.AppendChannelMembers(nil, ci) {
					shards[p.Assign[pe]] = true
				}
				if spans := len(shards) > 1; spans != cross[ci] {
					t.Fatalf("%s k=%d: channel %d spans %d shards but Cross=%v",
						topo.Name(), k, ci, len(shards), cross[ci])
				}
			}
			if k == 1 && len(p.Cross) != 0 {
				t.Fatalf("%s: single-shard partition has cross channels %v", topo.Name(), p.Cross)
			}
		}
	}
}
