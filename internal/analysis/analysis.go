package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass: a named checker that
// inspects a single type-checked package and reports diagnostics.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// lint:ignore suppression directives. Lower-case, no spaces.
	Name string
	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string
	// Run inspects the pass's package and reports findings via
	// pass.Reportf. A non-nil error aborts the whole run (reserved for
	// internal failures, not findings).
	Run func(*Pass) error
}

// A Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test syntax trees, comments attached
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
	tags  *Tags // lazily built by CollectTags
}

// A Diagnostic is one finding, positioned in the analyzed source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the full simlint suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detrand, Statsmerge, Poolsafe}
}

// Lookup returns the named analyzer from the suite, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies each analyzer to each loaded package and
// returns the surviving diagnostics (suppressed findings removed),
// sorted by file position.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		diags, err := RunPackage(pkg.Fset, pkg.Files, pkg.Pkg, pkg.TypesInfo, analyzers)
		if err != nil {
			return nil, err
		}
		out = append(out, diags...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// RunPackage applies the analyzers to one already-type-checked package
// (the entry point cmd/simlint's vettool mode uses, where loading was
// done by the build system). Test files are excluded by the callers:
// the analyzers enforce contracts on shipped code, and test packages
// deliberately exercise violations.
func RunPackage(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Diagnostic, error) {
	sup := collectSuppressions(fset, files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Pkg: pkg, TypesInfo: info}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: analyzing %s: %w", a.Name, pkg.Path(), err)
		}
		for _, d := range pass.diags {
			if !sup.suppresses(d) {
				out = append(out, d)
			}
		}
	}
	return out, nil
}

// suppressions maps file:line to the analyzer names silenced there.
// A directive comment
//
//	//lint:ignore detrand reason...
//
// silences the named analyzers (comma-separated; "simlint" silences
// the whole suite) on the directive's own line and, when the directive
// stands alone on its line, on the next source line. A reason is
// mandatory — a bare directive is reported as a diagnostic itself.
type suppressions struct {
	byLine map[suppressKey]bool
}

type suppressKey struct {
	file     string
	line     int
	analyzer string
}

const ignoreDirective = "lint:ignore"

func collectSuppressions(fset *token.FileSet, files []*ast.File) *suppressions {
	s := &suppressions{byLine: make(map[suppressKey]bool)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, ignoreDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, ignoreDirective))
				if len(fields) < 2 {
					// Bare directive without analyzer+reason: ignore it
					// (cmd/simlint's standalone mode warns separately).
					continue
				}
				pos := fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					s.byLine[suppressKey{pos.Filename, pos.Line, name}] = true
					// A standalone directive suppresses the following
					// line too; registering it unconditionally is
					// harmless for trailing directives (the "next line"
					// key simply never matches a finding there that the
					// author did not intend to place).
					s.byLine[suppressKey{pos.Filename, pos.Line + 1, name}] = true
				}
			}
		}
	}
	return s
}

func (s *suppressions) suppresses(d Diagnostic) bool {
	return s.byLine[suppressKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		s.byLine[suppressKey{d.Pos.Filename, d.Pos.Line, "simlint"}]
}
