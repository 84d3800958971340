package topology

import "testing"

func TestTorus3D(t *testing.T) {
	topo := NewTorus3D(4, 4, 4)
	if topo.Size() != 64 {
		t.Fatalf("size = %d", topo.Size())
	}
	// Every PE has 6 neighbors on a full 3-D torus.
	for pe := 0; pe < topo.Size(); pe++ {
		if got := len(topo.Neighbors(pe)); got != 6 {
			t.Fatalf("PE %d degree = %d, want 6", pe, got)
		}
	}
	if got, want := topo.Diameter(), 6; got != want {
		t.Errorf("diameter = %d, want %d", got, want)
	}
	// Degenerate thin torus still builds and connects.
	thin := NewTorus3D(1, 2, 3)
	if thin.Size() != 6 {
		t.Fatalf("thin size = %d", thin.Size())
	}
	if thin.Diameter() <= 0 {
		t.Error("thin torus disconnected")
	}
}

func TestTorus3DVsTorus2DDiameter(t *testing.T) {
	// Same PE count, smaller diameter: 4x4x4 (diam 6) vs 8x8 (diam 8).
	if NewTorus3D(4, 4, 4).Diameter() >= NewTorus(8, 8).Diameter() {
		t.Error("3-D torus should have smaller diameter than 2-D at 64 PEs")
	}
}

func TestChordalRing(t *testing.T) {
	topo := NewChordalRing(16, 4)
	if topo.Size() != 16 {
		t.Fatalf("size = %d", topo.Size())
	}
	// Degree 4: two ring links + two chords (stride 4 both directions).
	for pe := 0; pe < topo.Size(); pe++ {
		if got := len(topo.Neighbors(pe)); got != 4 {
			t.Fatalf("PE %d degree = %d, want 4", pe, got)
		}
	}
	// Chords shrink the diameter below the plain ring's.
	if topo.Diameter() >= NewRing(16).Diameter() {
		t.Errorf("chordal diameter %d not smaller than ring %d",
			topo.Diameter(), NewRing(16).Diameter())
	}
}

func TestChordalRingDegenerateChord(t *testing.T) {
	// chord == n/2 links i and i+n/2 once (not twice); no duplicates.
	topo := NewChordalRing(8, 4)
	want := 8 + 4 // 8 ring links, 4 distinct diameter chords
	if got := topo.NumChannels(); got != want {
		t.Errorf("channels = %d, want %d", got, want)
	}
}

func TestExtraConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewTorus3D(0, 2, 2) },
		func() { NewChordalRing(2, 2) },
		func() { NewChordalRing(10, 1) },
		func() { NewChordalRing(10, 6) },
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

func TestExtraTopologiesRouteCleanly(t *testing.T) {
	for _, topo := range []*Topology{NewTorus3D(3, 3, 3), NewChordalRing(12, 3)} {
		n := topo.Size()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				steps, cur := 0, a
				for cur != b {
					cur = topo.NextHop(cur, b)
					steps++
					if steps > n {
						t.Fatalf("%s: routing loop %d->%d", topo.Name(), a, b)
					}
				}
				if steps != topo.Dist(a, b) {
					t.Fatalf("%s: route %d->%d = %d hops, Dist %d", topo.Name(), a, b, steps, topo.Dist(a, b))
				}
			}
		}
	}
}
