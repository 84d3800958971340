package experiments

import "testing"

func TestParseTopo(t *testing.T) {
	good := []struct {
		in   string
		want string
	}{
		{"grid:10x10", "grid-10x10"},
		{"torus:4x8", "torus-4x8"},
		{"dlm:10x10:5", "dlm-10x10-s5"},
		{"hypercube:7", "hypercube-d7"},
		{"torus3d:4x4x4", "torus3d-4x4x4"},
		{"chordal:16:4", "chordal-16-c4"},
		{"ring:9", "ring-9"},
		{"complete:6", "complete-6"},
		{"star:5", "star-5"},
		{"bus:8", "bus-8"},
		{"single", "single"},
	}
	for _, c := range good {
		ts, err := ParseTopo(c.in)
		if err != nil {
			t.Errorf("ParseTopo(%q): %v", c.in, err)
			continue
		}
		if ts.Label() != c.want {
			t.Errorf("ParseTopo(%q) = %s, want %s", c.in, ts.Label(), c.want)
		}
		ts.Build() // must construct
	}
	bad := []string{"", "grid", "grid:10", "grid:ax b", "dlm:10x10", "dlm:10x10:x", "hypercube", "hypercube:x", "ring:x", "mobius:4", "torus3d:4x4", "torus3d:axbxc", "chordal:16", "chordal:x:4",
		// Sizes the constructors refuse.
		"grid:0x3", "grid:-1x5", "torus:5x0", "hypercube:-1", "hypercube:40", "ring:0", "star:1", "bus:1",
		"dlm:4x4:0", "dlm:4x4:9", "chordal:8:0", "chordal:8:5", "torus3d:2x0x2", "complete:0",
		// Machines past 2^30 PEs, including products that overflow int.
		"grid:32769x32768", "torus:4294967296x4294967296", "ring:1073741825", "implicit:torus:8x8"}
	for _, in := range bad {
		if _, err := ParseTopo(in); err == nil {
			t.Errorf("ParseTopo(%q) succeeded, want error", in)
		}
	}
}

func TestParseWorkload(t *testing.T) {
	good := []struct {
		in   string
		want string
	}{
		{"fib:15", "fib(15)"},
		{"dc:4181", "dc(1,4181)"},
		{"dc:5:17", "dc(5,17)"},
		{"binary:6", "binary(6)"},
		{"skew:10", "skew(10)"},
		{"chain:50", "chain(50)"},
		{"random:200:7", "random(200,seed=7)"},
	}
	for _, c := range good {
		ws, err := ParseWorkload(c.in)
		if err != nil {
			t.Errorf("ParseWorkload(%q): %v", c.in, err)
			continue
		}
		if ws.Label() != c.want {
			t.Errorf("ParseWorkload(%q) = %s, want %s", c.in, ws.Label(), c.want)
		}
		ws.Build()
	}
	bad := []string{"", "fib", "fib:x", "dc", "dc:1:2:3", "random", "ackermann:3",
		// Arguments the constructors refuse.
		"fib:-3", "fib:41", "dc:0", "dc:9:2", "dc:-9223372036854775808:9223372036854775807", "binary:-1", "binary:25",
		"skew:0", "chain:0", "chain:1048577", "random:0"}
	for _, in := range bad {
		if _, err := ParseWorkload(in); err == nil {
			t.Errorf("ParseWorkload(%q) succeeded, want error", in)
		}
	}
}

func TestParseStrategy(t *testing.T) {
	good := []struct {
		in   string
		want string
	}{
		{"cwn:9:2", "CWN(r=9,h=2)"},
		{"gm:1:2:20", "GM(l=1,h=2,i=20)"},
		{"local", "Local"},
		{"randomwalk:3", "RandomWalk(3)"},
		{"roundrobin", "RoundRobin"},
		{"worksteal:20:1", "WorkSteal(i=20,t=1)"},
	}
	for _, c := range good {
		ss, err := ParseStrategy(c.in)
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", c.in, err)
			continue
		}
		if ss.Label() != c.want {
			t.Errorf("ParseStrategy(%q) = %s, want %s", c.in, ss.Label(), c.want)
		}
	}
	if ss, err := ParseStrategy("acwn:9:2:3:40"); err != nil || ss.Kind != "acwn" || !ss.Redistribute {
		t.Errorf("acwn parse = %+v, %v", ss, err)
	}
	if ss, err := ParseStrategy("diffusion:20"); err != nil || ss.Kind != "diffusion" || ss.Interval != 20 {
		t.Errorf("diffusion parse = %+v, %v", ss, err)
	}
	if ss, err := ParseStrategy("ideal"); err != nil || ss.Kind != "ideal" {
		t.Errorf("ideal parse = %+v, %v", ss, err)
	}
	bad := []string{"", "cwn", "cwn:9", "cwn:9:x", "gm:1:2", "worksteal:20", "diffusion", "telepathy"}
	for _, in := range bad {
		if _, err := ParseStrategy(in); err == nil {
			t.Errorf("ParseStrategy(%q) succeeded, want error", in)
		}
	}
}
