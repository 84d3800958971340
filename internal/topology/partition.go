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
	topo *Topology

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
		topo:   t,
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

// Owner returns the shard owning PE pe.
func (p *Partition) Owner(pe int) int { return p.Assign[pe] }

// Size returns the number of PEs shard s owns.
func (p *Partition) Size(s int) int { return p.Starts[s+1] - p.Starts[s] }

// MinCrossLatency returns the smallest wire latency over the cross-shard
// channels, with lat giving each channel's latency (the minimum over
// message kinds the simulation can put on it). This is the conservative
// lookahead bound: a message sent on a cross-shard channel at time t
// cannot be delivered before t + MinCrossLatency, so shards simulated
// in lockstep windows of at most this width never receive a message
// for their own past. ok is false when no channel crosses a shard
// boundary (single-shard partitions) — lookahead is then unbounded.
func (p *Partition) MinCrossLatency(lat func(Channel) int64) (min int64, ok bool) {
	for _, ci := range p.Cross {
		// ChannelAt works on both forms; the Cross set is small, so the
		// implicit form's per-call Members allocation is fine here.
		l := lat(p.topo.ChannelAt(ci))
		if l <= 0 {
			panic(fmt.Sprintf("topology %s: channel %d has non-positive latency %d", p.topo.name, ci, l))
		}
		if !ok || l < min {
			min, ok = l, true
		}
	}
	return min, ok
}
