// Command simlint runs the repo's custom static-analysis suite
// (internal/analysis: detrand, statsmerge, poolsafe) over the
// simulator's own contracts: seed-determinism, exact shard-stats
// merging and free-list pool safety.
//
// Two modes:
//
//	simlint [packages]            standalone: load via the go tool and
//	                              report findings (default ./...)
//	go vet -vettool=/path/simlint ./...
//	                              vet mode: speaks the go vet unit
//	                              protocol (-V=full, -flags, unit.cfg)
//
// Findings print as file:line:col: message [analyzer]. Suppress a
// deliberate exception with a `//lint:ignore <analyzer> <reason>`
// comment on (or directly above) the offending line.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"log"
	"os"
	"strings"

	"cwnsim/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("simlint: ")
	args := os.Args[1:]

	switch {
	case len(args) == 1 && args[0] == "-V=full":
		printVersion()
	case len(args) == 1 && args[0] == "-flags":
		// The build tool asks which analyzer flags exist; none do.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		runVetUnit(args[0])
	default:
		runStandalone(args)
	}
}

// printVersion implements the -V=full protocol: the build tool caches
// vet results keyed on this line, so it embeds a content hash of the
// binary — rebuilding simlint invalidates stale vet caches.
func printVersion() {
	h := sha256.New()
	exe, err := os.Executable()
	if err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("simlint version simlint-%x\n", h.Sum(nil)[:12])
}

// runStandalone loads the named package patterns from the current
// directory and reports findings.
func runStandalone(patterns []string) {
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		log.Fatal(err)
	}
	diags, err := analysis.RunAnalyzers(pkgs, analysis.All())
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// vetConfig mirrors the JSON schema go vet hands a -vettool for each
// compilation unit (the unitchecker protocol).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runVetUnit analyzes one go vet compilation unit.
func runVetUnit(cfgFile string) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode vet config %s: %v", cfgFile, err)
	}
	// The protocol requires a facts file per unit even though these
	// analyzers produce none.
	writeVetx := func() {
		if cfg.VetxOutput != "" {
			if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
				log.Fatal(err)
			}
		}
	}

	// Dependencies are vetted only for facts, and test variants
	// re-present packages already vetted plainly plus _test.go files;
	// the contracts hold for shipped (non-test) code, so both are
	// fact-only no-ops here.
	if cfg.VetxOnly || strings.Contains(cfg.ID, " [") || strings.HasSuffix(cfg.ImportPath, ".test") {
		writeVetx()
		return
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				writeVetx()
				return
			}
			log.Fatal(err)
		}
		files = append(files, f)
	}
	imp := analysis.ExportDataImporter(fset, func(path string) (string, bool) {
		if real, ok := cfg.ImportMap[path]; ok {
			path = real
		}
		f, ok := cfg.PackageFile[path]
		return f, ok
	})
	pkg, info, err := analysis.Check(cfg.ImportPath, fset, files, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			writeVetx()
			return
		}
		log.Fatal(err)
	}
	diags, err := analysis.RunPackage(fset, files, pkg, info, analysis.All())
	if err != nil {
		log.Fatal(err)
	}
	writeVetx()
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
