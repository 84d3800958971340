package topology

import (
	"fmt"
	"math/bits"
)

// Implicit (computed-neighbor) topologies.
//
// The paper's regular families — grid, torus, hypercube — are all
// computable: a PE's neighbors, its channels, and shortest-path routing
// are index arithmetic. The materialized form stores O(n) adjacency
// slices, an O(channels) edge list, a neighbor-pair map, and lazily an
// O(n²) routing table; at a million PEs the routing table alone is
// terabytes and the adjacency gigabytes. The implicit form stores only
// the dimensions and computes everything on demand, bit-for-bit
// compatible with the materialized numbering:
//
//   - Channel IDs reproduce the exact emission order of newGrid /
//     NewHypercube (scan order, wrap blocks last), so per-channel
//     statistics line up index-for-index.
//   - Neighbors and ChannelsOf return the same ascending orders the
//     materialized build derives, so strategy tie-breaks and partition
//     blocks are identical.
//   - Dist/NextHop use closed forms that equal the materialized BFS
//     ("lowest-numbered neighbor on a shortest path").
//
// Equivalence on every accessor is pinned by TestImplicitMatchesMaterialized.

// implKind discriminates the computed-neighbor families. implNone marks
// a materialized topology (stored channel list).
type implKind uint8

const (
	implNone implKind = iota
	implGrid
	implTorus
	implHypercube
)

// NewGridImplicit returns the same rows×cols grid as NewGrid in
// computed-neighbor form: no stored edge lists, O(1) memory, identical
// name, channel numbering, neighbor orders and routing.
func NewGridImplicit(rows, cols int) *Topology {
	if rows <= 0 || cols <= 0 {
		panic("topology: grid dimensions must be positive")
	}
	return &Topology{
		name: fmt.Sprintf("grid-%dx%d", rows, cols),
		n:    rows * cols,
		impl: implGrid,
		rows: rows,
		cols: cols,
	}
}

// NewTorusImplicit returns the same rows×cols torus as NewTorus in
// computed-neighbor form.
func NewTorusImplicit(rows, cols int) *Topology {
	t := NewGridImplicit(rows, cols)
	t.name = fmt.Sprintf("torus-%dx%d", rows, cols)
	t.impl = implTorus
	return t
}

// NewHypercubeImplicit returns the same binary hypercube as NewHypercube
// in computed-neighbor form. The dimension cap is lifted to 30 — the
// whole point of the implicit form is machines past the materialized
// ceiling.
func NewHypercubeImplicit(dim int) *Topology {
	if dim < 0 || dim > 30 {
		panic("topology: hypercube dimension out of range [0,30]")
	}
	return &Topology{
		name: fmt.Sprintf("hypercube-d%d", dim),
		n:    1 << uint(dim),
		impl: implHypercube,
		dim:  dim,
	}
}

// Implicit reports whether the topology is in computed-neighbor form.
func (t *Topology) Implicit() bool { return t.impl != implNone }

// ---- channel numbering ----
//
// Grid channels follow newGrid's emission order: scan (r, c) row-major,
// each cell emitting its right link then its down link. A non-final row
// therefore emits 2*cols-1 channels (cols-1 rights interleaved with
// cols downs); the final row emits only its cols-1 rights. A torus
// appends the row-wrap links (one per row, iff cols > 2) and then the
// column-wrap links (one per column, iff rows > 2).

// gridChannelCount returns the number of non-wrap grid channels.
func (t *Topology) gridChannelCount() int {
	return t.rows*(t.cols-1) + (t.rows-1)*t.cols
}

// gridRight returns the ID of the link (r,c)-(r,c+1); caller guarantees
// c+1 < cols.
func (t *Topology) gridRight(r, c int) int {
	if r == t.rows-1 {
		return r*(2*t.cols-1) + c
	}
	return r*(2*t.cols-1) + 2*c
}

// gridDown returns the ID of the link (r,c)-(r+1,c); caller guarantees
// r+1 < rows.
func (t *Topology) gridDown(r, c int) int {
	base := r*(2*t.cols-1) + 2*c
	if c < t.cols-1 {
		return base + 1
	}
	return base
}

// rowWrapBase is the ID of row 0's wrap link; valid iff cols > 2.
func (t *Topology) rowWrapBase() int { return t.gridChannelCount() }

// colWrapBase is the ID of column 0's wrap link; valid iff rows > 2.
func (t *Topology) colWrapBase() int {
	b := t.gridChannelCount()
	if t.cols > 2 {
		b += t.rows
	}
	return b
}

// Hypercube channels follow NewHypercube's emission order: scan PEs
// ascending, each emitting one channel per zero bit b (the link to
// pe|1<<b), bits ascending. cubeZ(pe) counts the channels emitted by
// all lower PEs, so the link at (pe, b) has ID cubeZ(pe) plus the
// number of zero bits of pe below b.

// cubeZerosUpTo returns how many integers in [0, m) have bit b clear.
func cubeZerosUpTo(m, b int) int {
	period := 1 << uint(b+1)
	half := 1 << uint(b)
	z := m / period * half
	if r := m % period; r < half {
		z += r
	} else {
		z += half
	}
	return z
}

// cubeZ returns the number of channels emitted by PEs below pe.
func (t *Topology) cubeZ(pe int) int {
	z := 0
	for b := 0; b < t.dim; b++ {
		z += cubeZerosUpTo(pe, b)
	}
	return z
}

// cubeChan returns the ID of the link (pe, pe|1<<b); caller guarantees
// bit b of pe is clear.
func (t *Topology) cubeChan(pe, b int) int {
	return t.cubeZ(pe) + b - bits.OnesCount(uint(pe)&(1<<uint(b)-1))
}

// cubeChanAt inverts cubeChan: the (pe, b) pair of channel ci.
func (t *Topology) cubeChanAt(ci int) (pe, b int) {
	// Binary search the emitting PE: cubeZ is non-decreasing, and pe is
	// the unique value with cubeZ(pe) <= ci < cubeZ(pe+1).
	lo, hi := 0, t.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.cubeZ(mid+1) > ci {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	pe = lo
	k := ci - t.cubeZ(pe)
	for b := 0; b < t.dim; b++ {
		if pe&(1<<uint(b)) == 0 {
			if k == 0 {
				return pe, b
			}
			k--
		}
	}
	panic(fmt.Sprintf("topology %s: channel %d out of range", t.name, ci))
}

// gridChanMembers appends the member pair of grid/torus channel ci.
func (t *Topology) gridChanMembers(dst []int, ci int) []int {
	rows, cols := t.rows, t.cols
	gc := t.gridChannelCount()
	if ci < gc {
		rowLen := 2*cols - 1
		full := (rows - 1) * rowLen
		if ci < full {
			r, rem := ci/rowLen, ci%rowLen
			if rem < 2*(cols-1) {
				a := r*cols + rem/2
				if rem%2 == 0 {
					return append(dst, a, a+1) // right link
				}
				return append(dst, a, a+cols) // down link
			}
			a := r*cols + cols - 1 // the last column's down link
			return append(dst, a, a+cols)
		}
		a := (rows-1)*cols + (ci - full) // final row: right links only
		return append(dst, a, a+1)
	}
	// Wrap links, in newGrid's member order (high end first).
	off := ci - gc
	if cols > 2 {
		if off < rows {
			return append(dst, off*cols+cols-1, off*cols)
		}
		off -= rows
	}
	return append(dst, (rows-1)*cols+off, off)
}

// appendImplChanMembers appends the member pair of implicit channel ci.
func (t *Topology) appendImplChanMembers(dst []int, ci int) []int {
	if ci < 0 || ci >= t.NumChannels() {
		panic(fmt.Sprintf("topology %s: channel %d out of range", t.name, ci))
	}
	if t.impl == implHypercube {
		pe, b := t.cubeChanAt(ci)
		return append(dst, pe, pe|1<<uint(b))
	}
	return t.gridChanMembers(dst, ci)
}

// ---- neighbors and degrees ----

// appendImplNeighbors appends pe's neighbors in ascending order —
// exactly the order the materialized build derives.
func (t *Topology) appendImplNeighbors(dst []int, pe int) []int {
	switch t.impl {
	case implGrid:
		r, c := pe/t.cols, pe%t.cols
		if r > 0 {
			dst = append(dst, pe-t.cols)
		}
		if c > 0 {
			dst = append(dst, pe-1)
		}
		if c < t.cols-1 {
			dst = append(dst, pe+1)
		}
		if r < t.rows-1 {
			dst = append(dst, pe+t.cols)
		}
		return dst
	case implTorus:
		start := len(dst)
		r, c := pe/t.cols, pe%t.cols
		if r > 0 {
			dst = append(dst, pe-t.cols)
		}
		if c > 0 {
			dst = append(dst, pe-1)
		}
		if c < t.cols-1 {
			dst = append(dst, pe+1)
		}
		if r < t.rows-1 {
			dst = append(dst, pe+t.cols)
		}
		if t.cols > 2 {
			if c == 0 {
				dst = append(dst, pe+t.cols-1)
			} else if c == t.cols-1 {
				dst = append(dst, pe-(t.cols-1))
			}
		}
		if t.rows > 2 {
			if r == 0 {
				dst = append(dst, pe+(t.rows-1)*t.cols)
			} else if r == t.rows-1 {
				dst = append(dst, pe-(t.rows-1)*t.cols)
			}
		}
		insertionSortInts(dst[start:])
		return dst
	case implHypercube:
		// Clearing a set bit gives a smaller ID (ascending as the bit
		// descends); setting a clear bit a larger one (ascending as the
		// bit ascends).
		for b := t.dim - 1; b >= 0; b-- {
			if pe&(1<<uint(b)) != 0 {
				dst = append(dst, pe&^(1<<uint(b)))
			}
		}
		for b := 0; b < t.dim; b++ {
			if pe&(1<<uint(b)) == 0 {
				dst = append(dst, pe|1<<uint(b))
			}
		}
		return dst
	}
	panic("topology: appendImplNeighbors on materialized topology")
}

// appendImplChansOf appends the channel IDs of pe, ascending.
func (t *Topology) appendImplChansOf(dst []int, pe int) []int {
	switch t.impl {
	case implGrid, implTorus:
		r, c := pe/t.cols, pe%t.cols
		// up, left, right, down, then wraps: already ascending (lower
		// source rows emit first, wraps numbered last).
		if r > 0 {
			dst = append(dst, t.gridDown(r-1, c))
		}
		if c > 0 {
			dst = append(dst, t.gridRight(r, c-1))
		}
		if c < t.cols-1 {
			dst = append(dst, t.gridRight(r, c))
		}
		if r < t.rows-1 {
			dst = append(dst, t.gridDown(r, c))
		}
		if t.impl == implTorus {
			if t.cols > 2 && (c == 0 || c == t.cols-1) {
				dst = append(dst, t.rowWrapBase()+r)
			}
			if t.rows > 2 && (r == 0 || r == t.rows-1) {
				dst = append(dst, t.colWrapBase()+c)
			}
		}
		return dst
	case implHypercube:
		start := len(dst)
		for b := 0; b < t.dim; b++ {
			if pe&(1<<uint(b)) == 0 {
				dst = append(dst, t.cubeChan(pe, b))
			} else {
				dst = append(dst, t.cubeChan(pe&^(1<<uint(b)), b))
			}
		}
		insertionSortInts(dst[start:])
		return dst
	}
	panic("topology: appendImplChansOf on materialized topology")
}

// implLinkBetween returns the channel directly connecting a and b, if
// any. Implicit topologies are point-to-point, so there is at most one.
func (t *Topology) implLinkBetween(a, b int) (ci int, ok bool) {
	if a == b {
		return 0, false
	}
	if a > b {
		a, b = b, a
	}
	switch t.impl {
	case implGrid, implTorus:
		ar, ac := a/t.cols, a%t.cols
		br, bc := b/t.cols, b%t.cols
		if ar == br && bc == ac+1 {
			return t.gridRight(ar, ac), true
		}
		if ac == bc && br == ar+1 {
			return t.gridDown(ar, ac), true
		}
		if t.impl == implTorus {
			if t.cols > 2 && ar == br && ac == 0 && bc == t.cols-1 {
				return t.rowWrapBase() + ar, true
			}
			if t.rows > 2 && ac == bc && ar == 0 && br == t.rows-1 {
				return t.colWrapBase() + ac, true
			}
		}
		return 0, false
	case implHypercube:
		if x := a ^ b; x&(x-1) == 0 {
			return t.cubeChan(a, bits.TrailingZeros(uint(x))), true
		}
		return 0, false
	}
	return 0, false
}

// ---- routing ----

// implDist is the closed-form shortest hop count.
func (t *Topology) implDist(a, b int) int {
	switch t.impl {
	case implGrid:
		return absInt(a/t.cols-b/t.cols) + absInt(a%t.cols-b%t.cols)
	case implTorus:
		// min(d, size-d) per dimension; for sizes <= 2 (no wrap link)
		// the two coincide, so no special case is needed.
		dr := absInt(a/t.cols - b/t.cols)
		if w := t.rows - dr; w < dr {
			dr = w
		}
		dc := absInt(a%t.cols - b%t.cols)
		if w := t.cols - dc; w < dc {
			dc = w
		}
		return dr + dc
	case implHypercube:
		return bits.OnesCount(uint(a ^ b))
	}
	panic("topology: implDist on materialized topology")
}

// implNextHop reproduces the materialized rule: the lowest-numbered
// neighbor of from on a shortest path to to.
func (t *Topology) implNextHop(from, to int) int {
	if from == to {
		return from
	}
	if t.impl == implHypercube {
		// Neighbors ascend by clearing the highest set bit first; a
		// neighbor shortens the path iff the flipped bit differs from
		// to. So: clear the highest set differing bit if any, else set
		// the lowest clear differing bit.
		diff := from ^ to
		if down := diff & from; down != 0 {
			return from &^ (1 << uint(bits.Len(uint(down))-1))
		}
		return from | 1<<uint(bits.TrailingZeros(uint(diff)))
	}
	// Grid and torus: each dimension offers at most two shortest-path
	// moves (both only when a torus dimension's offset is exactly half
	// its size), so the answer is the lowest of at most four candidates.
	// A move off either end of a dimension wraps (only a torus makes
	// one).
	cols := t.cols
	r, c := from/cols, from%cols
	rowBack, rowFwd := t.dimMoves(r, to/cols, t.rows)
	colBack, colFwd := t.dimMoves(c, to%cols, cols)
	best := t.n
	if rowBack {
		nb := from - cols
		if r == 0 {
			nb += t.n
		}
		best = min(best, nb)
	}
	if rowFwd {
		nb := from + cols
		if r == t.rows-1 {
			nb -= t.n
		}
		best = min(best, nb)
	}
	if colBack {
		nb := from - 1
		if c == 0 {
			nb += cols
		}
		best = min(best, nb)
	}
	if colFwd {
		nb := from + 1
		if c == cols-1 {
			nb -= cols
		}
		best = min(best, nb)
	}
	return best
}

// dimMoves reports which moves along one dimension of the given size —
// back (position-1) and forward (position+1), wrapping on a torus —
// shorten the path from position a to position b.
func (t *Topology) dimMoves(a, b, size int) (back, fwd bool) {
	if t.impl == implGrid {
		return b < a, b > a
	}
	d := b - a // forward distance, mod size
	if d < 0 {
		d += size
	}
	if d == 0 {
		return false, false
	}
	return 2*d >= size, 2*d <= size
}

// implDiameter is the closed-form diameter.
func (t *Topology) implDiameter() int {
	switch t.impl {
	case implGrid:
		return t.rows - 1 + t.cols - 1
	case implTorus:
		return torusDimDiameter(t.rows) + torusDimDiameter(t.cols)
	case implHypercube:
		return t.dim
	}
	panic("topology: implDiameter on materialized topology")
}

// torusDimDiameter is a wrapped dimension's contribution: floor(s/2)
// once a wrap link exists, the path length s-1 below that.
func torusDimDiameter(s int) int {
	if s > 2 {
		return s / 2
	}
	return s - 1
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func insertionSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}
