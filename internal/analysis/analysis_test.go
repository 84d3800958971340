package analysis_test

import (
	"strings"
	"testing"

	"cwnsim/internal/analysis"
	"cwnsim/internal/analysis/analysistest"
)

func TestDetrand(t *testing.T) {
	analysistest.Run(t, "testdata/src/detrand", analysis.Detrand)
}

// TestDetrandIgnoresNonSimPackages proves the path gate: the fixture
// reads the wall clock and the global rand stream but is not
// simulation-path code, so the analyzer must stay silent (the fixture
// has no wants, and the harness fails on any unexpected diagnostic).
func TestDetrandIgnoresNonSimPackages(t *testing.T) {
	analysistest.Run(t, "testdata/src/detrand_nonsim", analysis.Detrand)
}

func TestStatsmerge(t *testing.T) {
	analysistest.Run(t, "testdata/src/statsmerge", analysis.Statsmerge)
}

func TestPoolsafe(t *testing.T) {
	analysistest.Run(t, "testdata/src/poolsafe", analysis.Poolsafe)
}

// TestSuiteCleanOnRepo runs the whole suite over the whole module —
// the same check CI runs through `go vet -vettool` — and requires
// zero findings: the shipped code either satisfies every contract or
// carries a reasoned suppression.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the full module")
	}
	pkgs, err := analysis.Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; expected the whole module", len(pkgs))
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d)
	}
}

// TestLookup pins the suite roster: cmd/simlint flags and CI reference
// analyzers by these names.
func TestLookup(t *testing.T) {
	for _, name := range []string{"detrand", "statsmerge", "poolsafe"} {
		a := analysis.Lookup(name)
		if a == nil {
			t.Fatalf("Lookup(%q) = nil", name)
		}
		if a.Name != name || a.Doc == "" || a.Run == nil {
			t.Errorf("Lookup(%q) returned incomplete analyzer %+v", name, a)
		}
	}
	if analysis.Lookup("nosuch") != nil {
		t.Error("Lookup of unknown name should be nil")
	}
	if n := len(analysis.All()); n != 3 {
		t.Errorf("All() has %d analyzers, want 3", n)
	}
}

// TestDiagnosticString pins the standalone output format (file:line:col,
// message, analyzer tag) that the vettool mode mirrors to stderr.
func TestDiagnosticString(t *testing.T) {
	pkgs, err := analysis.Load("testdata/src/detrand", ".")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, []*analysis.Analyzer{analysis.Detrand})
	if err != nil {
		t.Fatalf("running detrand: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("expected findings in the detrand fixture")
	}
	s := diags[0].String()
	if !strings.Contains(s, "[detrand]") || !strings.Contains(s, "ambient.go:") {
		t.Errorf("diagnostic string %q missing analyzer tag or position", s)
	}
}
