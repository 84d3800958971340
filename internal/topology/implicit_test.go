package topology

import "testing"

// implPairs returns (materialized, implicit) builds of the same network
// for every implicit family, over sizes that exercise the degenerate
// dimensions (1 and 2, where wrap links vanish) as well as squares,
// rectangles and the hypercube range.
func implPairs() [][2]*Topology {
	var pairs [][2]*Topology
	dims := [][2]int{
		{1, 1}, {1, 2}, {2, 1}, {1, 5}, {5, 1}, {2, 2}, {2, 3}, {3, 2},
		{2, 5}, {5, 2}, {3, 3}, {3, 7}, {7, 3}, {4, 4}, {5, 5}, {8, 8},
		{6, 10}, {10, 6}, {10, 10}, {16, 16},
	}
	for _, d := range dims {
		pairs = append(pairs,
			[2]*Topology{NewGrid(d[0], d[1]), NewGridImplicit(d[0], d[1])},
			[2]*Topology{NewTorus(d[0], d[1]), NewTorusImplicit(d[0], d[1])})
	}
	for dim := 0; dim <= 8; dim++ {
		pairs = append(pairs, [2]*Topology{NewHypercube(dim), NewHypercubeImplicit(dim)})
	}
	return pairs
}

// TestImplicitMatchesMaterialized pins the implicit forms bit-for-bit
// against the materialized builds on every accessor: channel numbering
// and member order, adjacency and channel order, routing, and partition
// blocks. The machine layer depends on this equivalence —
// it is what makes switching a big run to the implicit form a pure
// memory-layout change with identical results.
func TestImplicitMatchesMaterialized(t *testing.T) {
	for _, pair := range implPairs() {
		mat, imp := pair[0], pair[1]
		if !imp.Implicit() || mat.Implicit() {
			t.Fatalf("%s: Implicit() flags wrong way around", mat.Name())
		}
		if mat.Name() != imp.Name() {
			t.Fatalf("name mismatch: %q vs %q", mat.Name(), imp.Name())
		}
		name := mat.Name()
		if mat.Size() != imp.Size() {
			t.Fatalf("%s: size %d vs %d", name, mat.Size(), imp.Size())
		}
		n := mat.Size()

		// Channel list: count and member order.
		if mat.NumChannels() != imp.NumChannels() {
			t.Fatalf("%s: %d channels materialized, %d implicit", name, mat.NumChannels(), imp.NumChannels())
		}
		for ci := 0; ci < mat.NumChannels(); ci++ {
			want := mat.AppendChannelMembers(nil, ci)
			if got := imp.AppendChannelMembers(nil, ci); !equalInts(want, got) {
				t.Fatalf("%s: AppendChannelMembers(%d): %v vs %v", name, ci, want, got)
			}
		}

		// Per-PE adjacency: neighbor order and channel order.
		for pe := 0; pe < n; pe++ {
			if !equalInts(mat.Neighbors(pe), imp.Neighbors(pe)) {
				t.Fatalf("%s: Neighbors(%d): %v vs %v", name, pe, mat.Neighbors(pe), imp.Neighbors(pe))
			}
			if got := imp.AppendNeighbors(nil, pe); !equalInts(mat.Neighbors(pe), got) {
				t.Fatalf("%s: AppendNeighbors(%d): %v vs %v", name, pe, mat.Neighbors(pe), got)
			}
			want := mat.AppendChannelsOf(nil, pe)
			if got := imp.AppendChannelsOf(nil, pe); !equalInts(want, got) {
				t.Fatalf("%s: AppendChannelsOf(%d): %v vs %v", name, pe, want, got)
			}
		}

		// Pairwise: channels-between, distance, next hop.
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				want := mat.AppendChannelsBetween(nil, a, b)
				if got := imp.AppendChannelsBetween(nil, a, b); !equalInts(want, got) {
					t.Fatalf("%s: AppendChannelsBetween(%d,%d): %v vs %v", name, a, b, want, got)
				}
				if mat.Dist(a, b) != imp.Dist(a, b) {
					t.Fatalf("%s: Dist(%d,%d): %d vs %d", name, a, b, mat.Dist(a, b), imp.Dist(a, b))
				}
				if mat.NextHop(a, b) != imp.NextHop(a, b) {
					t.Fatalf("%s: NextHop(%d,%d): %d vs %d", name, a, b, mat.NextHop(a, b), imp.NextHop(a, b))
				}
			}
		}

		// Aggregates.
		if mat.Diameter() != imp.Diameter() {
			t.Fatalf("%s: Diameter: %d vs %d", name, mat.Diameter(), imp.Diameter())
		}
		if mat.String() != imp.String() {
			t.Fatalf("%s: String: %q vs %q", name, mat.String(), imp.String())
		}

		// Partition blocks and cross-channel sets, every shard count up
		// to a cap (the full range on small machines).
		maxShards := n
		if maxShards > 12 {
			maxShards = 12
		}
		for shards := 1; shards <= maxShards; shards++ {
			pm, pi := mat.Partition(shards), imp.Partition(shards)
			if !equalInts(pm.Assign, pi.Assign) || !equalInts(pm.Starts, pi.Starts) || !equalInts(pm.Cross, pi.Cross) {
				t.Fatalf("%s: Partition(%d) diverged:\n mat assign=%v starts=%v cross=%v\n imp assign=%v starts=%v cross=%v",
					name, shards, pm.Assign, pm.Starts, pm.Cross, pi.Assign, pi.Starts, pi.Cross)
			}
		}
	}
}

// TestImplicitLargeSpotChecks exercises the implicit forms at sizes the
// materialized build cannot reach, checking internal consistency: every
// listed neighbor is mutual, linked by exactly the channel the ID
// arithmetic names, and channel IDs are a bijection onto [0, NumChannels).
func TestImplicitLargeSpotChecks(t *testing.T) {
	for _, topo := range []*Topology{
		NewTorusImplicit(1000, 1000),
		NewGridImplicit(512, 512),
		NewHypercubeImplicit(20),
	} {
		n := topo.Size()
		// Probe a deterministic scatter of PEs rather than all of them.
		for pe := 0; pe < n; pe += n/97 + 1 {
			for _, nb := range topo.Neighbors(pe) {
				if topo.Dist(pe, nb) != 1 {
					t.Fatalf("%s: neighbor %d of %d at distance %d", topo.Name(), nb, pe, topo.Dist(pe, nb))
				}
				cis := topo.AppendChannelsBetween(nil, pe, nb)
				if len(cis) != 1 {
					t.Fatalf("%s: %d channels between neighbors %d,%d", topo.Name(), len(cis), pe, nb)
				}
				members := topo.AppendChannelMembers(nil, cis[0])
				if !(members[0] == pe && members[1] == nb) && !(members[0] == nb && members[1] == pe) {
					t.Fatalf("%s: channel %d members %v, want {%d,%d}", topo.Name(), cis[0], members, pe, nb)
				}
			}
			// AppendChannelsOf must be ascending and mutual.
			prev := -1
			for _, ci := range topo.AppendChannelsOf(nil, pe) {
				if ci <= prev {
					t.Fatalf("%s: AppendChannelsOf(%d) not ascending", topo.Name(), pe)
				}
				prev = ci
				if ci < 0 || ci >= topo.NumChannels() {
					t.Fatalf("%s: AppendChannelsOf(%d) out of range: %d", topo.Name(), pe, ci)
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
