// Package topology models the interconnection networks of the simulated
// multiprocessor: which PEs are neighbors, which communication channels
// (point-to-point links or multi-drop buses) connect them, shortest-path
// distances, and next-hop routing.
//
// The paper's experiments use three families: the 2-dimensional
// nearest-neighbor grid (with and without wraparound), the bus-based
// double-lattice-mesh from Kale's ICPP 1986 "Optimal Communication
// Neighborhoods", and — in the appendix — binary hypercubes. Ring, star,
// complete and tree networks are included for tests and extensions.
//
// A Channel is the unit of communication contention: a point-to-point
// link has two members, a bus has span-many. Two PEs are neighbors iff
// they share at least one channel; one channel transaction is one "hop".
package topology

import (
	"fmt"
	"sort"
	"sync"
)

// Channel is a communication resource shared by its member PEs. For
// point-to-point links len(Members) == 2; for buses it is the bus span.
// Exactly one message can occupy a channel at a time.
type Channel struct {
	ID      int
	Members []int
}

// Topology is an immutable interconnection network. Construct via the
// New* functions. All slices returned by accessors must be treated as
// read-only; they are shared across concurrent simulations.
//
// A topology comes in one of two forms. The materialized form (every
// New* constructor except the *Implicit ones) stores the channel list
// and adjacency and answers Dist, NextHop and Diameter from an
// all-pairs BFS table built on the first of those calls — it handles
// arbitrary irregular networks but costs O(n²) memory once routing is
// touched. The implicit form (NewGridImplicit, NewTorusImplicit,
// NewHypercubeImplicit) stores only the dimensions and computes
// neighbors, channel IDs, distances, next hops and the diameter
// arithmetically, bit-for-bit identical to the materialized numbering
// and routing — O(1) memory at any machine size. Spec-built grids, tori
// and hypercubes (package experiments) always take the implicit form,
// so only DLM and irregular graphs build routing tables; NewGrid,
// NewTorus and NewHypercube stay materialized as the reference the
// implicit forms are pinned against. The accessors are one family,
// NumChannels and the allocation-free Append* forms, which work on
// both; Neighbors, which benchmarks call, works on both too but
// allocates per call on implicit topologies.
type Topology struct {
	name     string
	n        int
	channels []Channel
	chansOf  [][]int // PE -> channel IDs, ascending
	nbrs     [][]int // PE -> neighbor PE IDs, ascending
	between  map[pairKey][]int

	// Implicit (computed-neighbor) form: impl selects the family and
	// rows/cols/dim its dimensions; the materialized fields above stay
	// nil. See implicit.go.
	impl implKind
	rows int
	cols int
	dim  int

	routeOnce sync.Once
	dist      [][]int32 // all-pairs shortest hop counts
	next      [][]int32 // next[src][dst] = first hop on a shortest path
	diameter  int
}

type pairKey struct{ a, b int }

// build assembles the derived structures from a channel list.
func build(name string, n int, channels []Channel) *Topology {
	if n <= 0 {
		panic("topology: non-positive size")
	}
	t := &Topology{
		name:     name,
		n:        n,
		channels: channels,
		chansOf:  make([][]int, n),
		nbrs:     make([][]int, n),
		between:  make(map[pairKey][]int),
	}
	nbrSet := make([]map[int]bool, n)
	for i := range nbrSet {
		nbrSet[i] = make(map[int]bool)
	}
	for ci := range channels {
		ch := &channels[ci]
		ch.ID = ci
		if len(ch.Members) < 2 {
			panic(fmt.Sprintf("topology %s: channel %d has %d members", name, ci, len(ch.Members)))
		}
		seen := make(map[int]bool, len(ch.Members))
		for _, pe := range ch.Members {
			if pe < 0 || pe >= n {
				panic(fmt.Sprintf("topology %s: channel %d member %d out of range", name, ci, pe))
			}
			if seen[pe] {
				panic(fmt.Sprintf("topology %s: channel %d lists PE %d twice", name, ci, pe))
			}
			seen[pe] = true
			t.chansOf[pe] = append(t.chansOf[pe], ci)
		}
		for _, a := range ch.Members {
			for _, b := range ch.Members {
				if a == b {
					continue
				}
				nbrSet[a][b] = true
				t.between[pairKey{a, b}] = append(t.between[pairKey{a, b}], ci)
			}
		}
	}
	for pe := range t.nbrs {
		for b := range nbrSet[pe] {
			t.nbrs[pe] = append(t.nbrs[pe], b)
		}
		sort.Ints(t.nbrs[pe])
	}
	return t
}

// Name returns a human-readable identifier, e.g. "grid-10x10" or
// "dlm-10x10-s5".
func (t *Topology) Name() string { return t.name }

// Size returns the number of PEs.
func (t *Topology) Size() int { return t.n }

// NumChannels returns the number of communication channels.
func (t *Topology) NumChannels() int {
	switch t.impl {
	case implNone:
		return len(t.channels)
	case implGrid:
		return t.gridChannelCount()
	case implTorus:
		n := t.gridChannelCount()
		if t.cols > 2 {
			n += t.rows
		}
		if t.rows > 2 {
			n += t.cols
		}
		return n
	default: // implHypercube
		if t.dim == 0 {
			return 0
		}
		return t.dim << uint(t.dim-1)
	}
}

// AppendChannelMembers appends channel ci's member PEs to dst and
// returns it, in the channel's stored member order. Allocation-free on
// both forms when dst has capacity.
func (t *Topology) AppendChannelMembers(dst []int, ci int) []int {
	if t.impl == implNone {
		return append(dst, t.channels[ci].Members...)
	}
	return t.appendImplChanMembers(dst, ci)
}

// AppendChannelsOf appends the IDs of pe's channels to dst and returns
// it, ascending. Allocation-free on both forms when dst has capacity.
func (t *Topology) AppendChannelsOf(dst []int, pe int) []int {
	if t.impl == implNone {
		return append(dst, t.chansOf[pe]...)
	}
	return t.appendImplChansOf(dst, pe)
}

// Neighbors returns the PEs sharing at least one channel with pe, in
// ascending order. Allocates per call on implicit topologies.
func (t *Topology) Neighbors(pe int) []int {
	if t.impl == implNone {
		return t.nbrs[pe]
	}
	return t.appendImplNeighbors(nil, pe)
}

// AppendNeighbors appends pe's neighbors to dst and returns it, in
// ascending order. Allocation-free on both forms when dst has capacity.
func (t *Topology) AppendNeighbors(dst []int, pe int) []int {
	if t.impl == implNone {
		return append(dst, t.nbrs[pe]...)
	}
	return t.appendImplNeighbors(dst, pe)
}

// AppendChannelsBetween appends the IDs of the channels directly
// connecting a and b to dst and returns it. Allocation-free on both
// forms when dst has capacity.
func (t *Topology) AppendChannelsBetween(dst []int, a, b int) []int {
	if t.impl == implNone {
		return append(dst, t.between[pairKey{a, b}]...)
	}
	if ci, ok := t.implLinkBetween(a, b); ok {
		return append(dst, ci)
	}
	return dst
}

// ensureRouting computes all-pairs BFS distances, next hops and the
// diameter, once, on first use.
func (t *Topology) ensureRouting() {
	t.routeOnce.Do(func() {
		n := t.n
		t.dist = make([][]int32, n)
		queue := make([]int32, 0, n)
		for src := 0; src < n; src++ {
			d := make([]int32, n)
			for i := range d {
				d[i] = -1
			}
			d[src] = 0
			queue = queue[:0]
			queue = append(queue, int32(src))
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				for _, v := range t.nbrs[u] {
					if d[v] < 0 {
						d[v] = d[u] + 1
						queue = append(queue, int32(v))
					}
				}
			}
			t.dist[src] = d
		}
		diam := 0
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				dd := t.dist[src][dst]
				if dd < 0 {
					panic(fmt.Sprintf("topology %s: disconnected (%d unreachable from %d)", t.name, dst, src))
				}
				if int(dd) > diam {
					diam = int(dd)
				}
			}
		}
		t.diameter = diam
		// next[src][dst]: lowest-numbered neighbor of src on a shortest path.
		t.next = make([][]int32, n)
		for src := 0; src < n; src++ {
			row := make([]int32, n)
			for dst := 0; dst < n; dst++ {
				if src == dst {
					row[dst] = int32(src)
					continue
				}
				row[dst] = -1
				for _, nb := range t.nbrs[src] {
					if t.dist[nb][dst] == t.dist[src][dst]-1 {
						row[dst] = int32(nb)
						break // neighbors ascending => deterministic choice
					}
				}
				if row[dst] < 0 {
					panic("topology: no next hop on shortest path")
				}
			}
			t.next[src] = row
		}
	})
}

// Dist returns the shortest hop count between a and b.
func (t *Topology) Dist(a, b int) int {
	if t.impl != implNone {
		return t.implDist(a, b)
	}
	t.ensureRouting()
	return int(t.dist[a][b])
}

// NextHop returns the neighbor of from that is the first hop on a
// shortest path to to — the lowest-numbered such neighbor, on both
// forms. NextHop(x, x) == x.
func (t *Topology) NextHop(from, to int) int {
	if t.impl != implNone {
		return t.implNextHop(from, to)
	}
	t.ensureRouting()
	return int(t.next[from][to])
}

// Diameter returns the maximum shortest-path distance over all PE pairs.
func (t *Topology) Diameter() int {
	if t.impl != implNone {
		return t.implDiameter()
	}
	t.ensureRouting()
	return t.diameter
}

// String implements fmt.Stringer.
func (t *Topology) String() string {
	return fmt.Sprintf("%s (%d PEs, %d channels, diameter %d)", t.name, t.n, t.NumChannels(), t.Diameter())
}
