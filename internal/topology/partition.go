package topology

import "fmt"

// Partition divides the PE index space into contiguous blocks — the
// spatial shards of a parallel simulation. Block s owns the half-open
// index range [Starts[s], Starts[s+1]); blocks differ in size by at
// most one PE. Contiguity is deliberate: the New* constructors number
// PEs so that index-adjacent PEs are topology-adjacent (row-major
// grids, Gray-coded hypercubes' low bits, ring order), so contiguous
// blocks cut few channels and the cross-shard traffic the conservative
// synchronization protocol must queue stays small.
type Partition struct {
	// Shards is the block count (1 <= Shards <= Size).
	Shards int
	// Assign maps each PE to its owning shard, non-decreasing.
	Assign []int
	// Starts[s] is the first PE of shard s; Starts[Shards] == Size.
	Starts []int
	// Cross lists the IDs of channels whose members live on more than
	// one shard, ascending. Empty iff Shards == 1.
	Cross []int
}

// Partition splits the topology into the given number of contiguous
// shards. shards must be in [1, Size]; callers scaling a shard count to
// small machines should clamp before calling.
func (t *Topology) Partition(shards int) Partition {
	if shards < 1 || shards > t.n {
		panic(fmt.Sprintf("topology %s: Partition(%d) outside [1,%d]", t.name, shards, t.n))
	}
	p := Partition{
		Shards: shards,
		Assign: make([]int, t.n),
		Starts: make([]int, shards+1),
	}
	for i := range p.Assign {
		// Floor division spreads the remainder over the leading shards;
		// every shard is non-empty because shards <= n.
		p.Assign[i] = i * shards / t.n
	}
	p.Starts[shards] = t.n
	for i := t.n - 1; i >= 0; i-- {
		p.Starts[p.Assign[i]] = i
	}
	if shards == 1 {
		return p // one shard: no channel can cross a boundary
	}
	// Scan channels in ascending ID order on either form — the Cross
	// list comes out identical for a materialized and an implicit build
	// of the same network (pinned by TestImplicitMatchesMaterialized).
	if t.impl == implNone {
		for ci := range t.channels {
			members := t.channels[ci].Members
			first := p.Assign[members[0]]
			for _, pe := range members[1:] {
				if p.Assign[pe] != first {
					p.Cross = append(p.Cross, ci)
					break
				}
			}
		}
	} else {
		var buf [2]int
		nc := t.NumChannels()
		for ci := 0; ci < nc; ci++ {
			members := t.appendImplChanMembers(buf[:0], ci)
			if p.Assign[members[0]] != p.Assign[members[1]] {
				p.Cross = append(p.Cross, ci)
			}
		}
	}
	return p
}
