package topology

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// all returns a representative pool of topologies exercised by the
// generic invariant tests.
func pool() []*Topology {
	return []*Topology{
		NewGrid(5, 5),
		NewGrid(8, 8),
		NewGrid(3, 7),
		NewTorus(5, 5),
		NewTorus(10, 10),
		NewTorus(2, 2),
		NewTorus(1, 4),
		NewDLM(5, 5, 5),
		NewDLM(10, 10, 5),
		NewDLM(8, 8, 4),
		NewHypercube(0),
		NewHypercube(3),
		NewHypercube(5),
		NewRing(9),
		NewComplete(6),
		NewSingle(),
		NewStar(7),
		NewTree(2, 4),
		NewBusGlobal(8),
		NewTorus3D(3, 3, 3),
		NewTorus3D(2, 3, 4),
		NewChordalRing(14, 4),
	}
}

func TestSizes(t *testing.T) {
	cases := []struct {
		topo *Topology
		want int
	}{
		{NewGrid(5, 5), 25},
		{NewGrid(20, 20), 400},
		{NewDLM(10, 10, 5), 100},
		{NewHypercube(7), 128},
		{NewRing(11), 11},
		{NewComplete(9), 9},
		{NewSingle(), 1},
		{NewStar(5), 5},
		{NewTree(2, 4), 15},
		{NewTree(3, 3), 13},
	}
	for _, c := range cases {
		if got := c.topo.Size(); got != c.want {
			t.Errorf("%s: Size = %d, want %d", c.topo.Name(), got, c.want)
		}
	}
}

func TestDiameters(t *testing.T) {
	cases := []struct {
		topo *Topology
		want int
	}{
		// Non-wrap grids: 2(n-1). The paper quotes grid diameters
		// "8 to 38" for sides 5..20 — exactly these values.
		{NewGrid(5, 5), 8},
		{NewGrid(8, 8), 14},
		{NewGrid(10, 10), 18},
		{NewGrid(16, 16), 30},
		{NewGrid(20, 20), 38},
		// Tori: floor(r/2)+floor(c/2).
		{NewTorus(5, 5), 4},
		{NewTorus(10, 10), 10},
		{NewTorus(20, 20), 20},
		// Hypercubes: dimension.
		{NewHypercube(3), 3},
		{NewHypercube(5), 5},
		{NewHypercube(7), 7},
		// Others.
		{NewRing(10), 5},
		{NewRing(11), 5},
		{NewComplete(8), 1},
		{NewStar(6), 2},
		{NewSingle(), 0},
		{NewBusGlobal(5), 1},
	}
	for _, c := range cases {
		if got := c.topo.Diameter(); got != c.want {
			t.Errorf("%s: Diameter = %d, want %d", c.topo.Name(), got, c.want)
		}
	}
}

func TestDLMDiametersSmall(t *testing.T) {
	// The paper: "The DLM topologies have smaller diameters (4-5)
	// compared to the grids (ranges from 8 to 38)."
	cases := []struct {
		rows, span int
		max        int
	}{
		{5, 5, 2},
		{8, 4, 4},
		{10, 5, 4},
		{16, 4, 8},
		{20, 5, 8},
	}
	for _, c := range cases {
		topo := NewDLM(c.rows, c.rows, c.span)
		if d := topo.Diameter(); d > c.max {
			t.Errorf("%s: diameter %d exceeds expected bound %d", topo.Name(), d, c.max)
		}
	}
}

func TestGridNeighbors(t *testing.T) {
	g := NewGrid(3, 3)
	// Corner PE 0 has 2 neighbors, edge PE 1 has 3, center PE 4 has 4.
	if n := g.Neighbors(0); len(n) != 2 {
		t.Errorf("corner neighbors = %v", n)
	}
	if n := g.Neighbors(1); len(n) != 3 {
		t.Errorf("edge neighbors = %v", n)
	}
	if n := g.Neighbors(4); len(n) != 4 {
		t.Errorf("center neighbors = %v", n)
	}
	tor := NewTorus(4, 4)
	for pe := 0; pe < 16; pe++ {
		if n := tor.Neighbors(pe); len(n) != 4 {
			t.Errorf("torus PE %d has %d neighbors, want 4", pe, len(n))
		}
	}
}

func TestHypercubeStructure(t *testing.T) {
	h := NewHypercube(5)
	for pe := 0; pe < h.Size(); pe++ {
		nbrs := h.Neighbors(pe)
		if len(nbrs) != 5 {
			t.Fatalf("PE %d degree %d, want 5", pe, len(nbrs))
		}
		for _, nb := range nbrs {
			if bits.OnesCount(uint(pe^nb)) != 1 {
				t.Fatalf("PE %d adjacent to %d: differ in >1 bit", pe, nb)
			}
		}
	}
	// Distance on a hypercube is Hamming distance.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		a, b := rng.Intn(32), rng.Intn(32)
		want := bits.OnesCount(uint(a ^ b))
		if got := h.Dist(a, b); got != want {
			t.Fatalf("Dist(%d,%d) = %d, want Hamming %d", a, b, got, want)
		}
	}
}

func TestDLMStructure(t *testing.T) {
	topo := NewDLM(10, 10, 5)
	// Every PE sits on exactly 4 buses: two horizontal, two vertical.
	for pe := 0; pe < topo.Size(); pe++ {
		if got := len(topo.AppendChannelsOf(nil, pe)); got != 4 {
			t.Fatalf("PE %d on %d buses, want 4", pe, got)
		}
	}
	// Every bus has span members.
	for ci := 0; ci < topo.NumChannels(); ci++ {
		if got := len(topo.AppendChannelMembers(nil, ci)); got != 5 {
			t.Fatalf("bus %d has %d members, want 5", ci, got)
		}
	}
	// Bus count: 2 lattices × (10 rows × 2 buses + 10 cols × 2 buses).
	if got := topo.NumChannels(); got != 80 {
		t.Fatalf("bus count = %d, want 80", got)
	}
	// Neighbor count bounded by 4·(span-1).
	for pe := 0; pe < topo.Size(); pe++ {
		if got := len(topo.Neighbors(pe)); got > 16 || got < 4 {
			t.Fatalf("PE %d has %d neighbors, want 4..16", pe, got)
		}
	}
}

func TestNeighborSymmetryAndChannels(t *testing.T) {
	for _, topo := range pool() {
		for a := 0; a < topo.Size(); a++ {
			for _, b := range topo.Neighbors(a) {
				found := false
				for _, x := range topo.Neighbors(b) {
					if x == a {
						found = true
					}
				}
				if !found {
					t.Fatalf("%s: %d->%d neighbor not symmetric", topo.Name(), a, b)
				}
				chs := topo.AppendChannelsBetween(nil, a, b)
				if len(chs) == 0 {
					t.Fatalf("%s: neighbors %d,%d share no channel", topo.Name(), a, b)
				}
				for _, ci := range chs {
					members := topo.AppendChannelMembers(nil, ci)
					hasA, hasB := false, false
					for _, m := range members {
						hasA = hasA || m == a
						hasB = hasB || m == b
					}
					if !hasA || !hasB {
						t.Fatalf("%s: channel %d claimed between %d,%d but members %v", topo.Name(), ci, a, b, members)
					}
				}
			}
		}
	}
}

func TestDistanceInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, topo := range pool() {
		n := topo.Size()
		for i := 0; i < 100; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			dab, dba := topo.Dist(a, b), topo.Dist(b, a)
			if dab != dba {
				t.Fatalf("%s: Dist(%d,%d)=%d != Dist(%d,%d)=%d", topo.Name(), a, b, dab, b, a, dba)
			}
			if (a == b) != (dab == 0) {
				t.Fatalf("%s: Dist(%d,%d)=%d", topo.Name(), a, b, dab)
			}
			if dab > topo.Diameter() {
				t.Fatalf("%s: Dist(%d,%d)=%d exceeds diameter %d", topo.Name(), a, b, dab, topo.Diameter())
			}
		}
	}
}

func TestNextHopDecreasesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, topo := range pool() {
		n := topo.Size()
		for i := 0; i < 200; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				if topo.NextHop(a, b) != a {
					t.Fatalf("%s: NextHop(%d,%d) != %d", topo.Name(), a, b, a)
				}
				continue
			}
			// Walk the full route; it must take exactly Dist(a,b) hops.
			steps, cur := 0, a
			for cur != b {
				nxt := topo.NextHop(cur, b)
				if topo.Dist(nxt, b) != topo.Dist(cur, b)-1 {
					t.Fatalf("%s: NextHop(%d,%d)=%d does not decrease distance", topo.Name(), cur, b, nxt)
				}
				cur = nxt
				steps++
				if steps > n {
					t.Fatalf("%s: routing loop %d->%d", topo.Name(), a, b)
				}
			}
			if steps != topo.Dist(a, b) {
				t.Fatalf("%s: route %d->%d took %d hops, Dist=%d", topo.Name(), a, b, steps, topo.Dist(a, b))
			}
		}
	}
}

func TestQuickTorusDistanceFormula(t *testing.T) {
	topo := NewTorus(8, 8)
	f := func(a, b uint8) bool {
		pa, pb := int(a)%64, int(b)%64
		ra, ca := pa/8, pa%8
		rb, cb := pb/8, pb%8
		dr := abs(ra - rb)
		if dr > 4 {
			dr = 8 - dr
		}
		dc := abs(ca - cb)
		if dc > 4 {
			dc = 8 - dc
		}
		return topo.Dist(pa, pb) == dr+dc
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGridDistanceFormula(t *testing.T) {
	topo := NewGrid(7, 9)
	f := func(a, b uint8) bool {
		pa, pb := int(a)%63, int(b)%63
		ra, ca := pa/9, pa%9
		rb, cb := pb/9, pb%9
		return topo.Dist(pa, pb) == abs(ra-rb)+abs(ca-cb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestDegreeStats checks neighbor counts read through AppendNeighbors:
// a 3x3 grid's largest and total degree, and a complete graph's.
func TestDegreeStats(t *testing.T) {
	degrees := func(topo *Topology) (most, total int) {
		var buf []int
		for pe := 0; pe < topo.Size(); pe++ {
			buf = topo.AppendNeighbors(buf[:0], pe)
			most = max(most, len(buf))
			total += len(buf)
		}
		return most, total
	}
	if most, total := degrees(NewGrid(3, 3)); most != 4 || total != 24 {
		t.Errorf("grid degrees: max %d, total %d; want 4 and 24", most, total)
	}
	if most, total := degrees(NewComplete(5)); most != 4 || total != 20 {
		t.Errorf("complete degrees: max %d, total %d; want 4 and 20", most, total)
	}
}

func TestStringer(t *testing.T) {
	s := NewGrid(5, 5).String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewGrid(0, 5) },
		func() { NewDLM(10, 10, 3) }, // 10 % 3 != 0
		func() { NewDLM(10, 10, 1) }, // span < 2
		func() { NewHypercube(-1) },
		func() { NewRing(2) },
		func() { NewComplete(0) },
		func() { NewStar(1) },
		func() { NewTree(1, 3) },
		func() { NewTree(2, 1) },
		func() { NewBusGlobal(1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestRoutingConcurrentInit(t *testing.T) {
	// ensureRouting must be safe under concurrent first use.
	topo := NewGrid(12, 12)
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func() {
			_ = topo.Diameter()
			_ = topo.NextHop(0, topo.Size()-1)
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func BenchmarkBFSRouting400(b *testing.B) {
	for i := 0; i < b.N; i++ {
		topo := NewGrid(20, 20)
		_ = topo.Diameter()
	}
}
