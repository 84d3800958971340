package experiments

import (
	"strings"
	"testing"
)

func TestDiameterStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 10 simulations")
	}
	specs := DiameterStudySpecs(true)
	if len(specs) != 14 {
		t.Fatalf("specs = %d, want 14 (7 topologies x 2 strategies)", len(specs))
	}
	// Specs alternate CWN, GM per topology.
	for i := 0; i < len(specs); i += 2 {
		if specs[i].Strategy.Kind != "cwn" || specs[i+1].Strategy.Kind != "gm" {
			t.Fatalf("spec order wrong at %d", i)
		}
		if specs[i].Topo.PEs() != 64 {
			t.Fatalf("%s has %d PEs, want 64 (fixed machine size)", specs[i].Topo.Label(), specs[i].Topo.PEs())
		}
	}
	results, err := RunAll(specs, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb := DiameterStudyTable(results)
	if tb.NumRows() != 7 {
		t.Fatalf("table rows = %d", tb.NumRows())
	}
	out := tb.String()
	for _, want := range []string{"complete-64", "hypercube-d6", "ring-64"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %s:\n%s", want, out)
		}
	}
	// CWN wins at every diameter in this study.
	for i := 0; i+1 < len(results); i += 2 {
		if results[i].Speedup() <= results[i+1].Speedup() {
			t.Errorf("%s: CWN %.2f <= GM %.2f", results[i].Spec.Topo.Label(),
				results[i].Speedup(), results[i+1].Speedup())
		}
	}
}

func TestAblationIncludesNewBaselines(t *testing.T) {
	labels := map[string]bool{}
	for _, s := range AblationSpecs(true) {
		labels[s.Label] = true
	}
	for _, want := range []string{"Diffusion", "Ideal (perfect info)", "CWN (paper)"} {
		if !labels[want] {
			t.Errorf("ablation suite missing %q", want)
		}
	}
}
