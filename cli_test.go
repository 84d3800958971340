package cwnsim_test

// The command-line surface, pinned on built binaries: every command's
// and every library example's stdout (and the CSV and Perfetto files a
// run writes) against goldens in testdata/cli, and the error contract — a bad flag exits 2 with
// exactly one stderr line and nothing on stdout. Built binaries rather
// than `go run`, which adds its own "exit status" line to stderr.
//
// After an intended output change, rewrite the goldens with
//
//	go test -run TestCLI -update-cli-golden .

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateCLIGolden = flag.Bool("update-cli-golden", false, "rewrite testdata/cli from the current commands")

// cliCommands are the six user-facing binaries.
var cliCommands = []string{"lbsim", "optimize", "paper", "serve", "sweep", "validate"}

// cliExamples are the library-API programs under examples/; each runs
// without arguments, and its stdout is pinned as example-<name>.stdout.
var cliExamples = []string{"compare", "customstrategy", "heterogeneous", "irregular", "openstream", "quickstart", "scenario"}

// cliWallClock matches the host-timing text a command prints; it is
// masked before comparing against a golden.
var cliWallClock = regexp.MustCompile(`(wall time: |done in |claims hold \()[^\n]*`)

// cliScenario is the crash-and-recover script the two scenario goldens
// run under.
const cliScenario = "fail:pes=25%@t=2000,recover@t=5000"

// cliGolden is one pinned invocation: argv (command first), the output
// files it writes into its working directory, pinned in full next to its
// stdout, and the ones pinned by SHA-256 digest instead (Perfetto
// exports run to megabytes).
type cliGolden struct {
	name    string
	argv    []string
	files   []string
	digests []string
}

func cliGoldens(specDir string) []cliGolden {
	gs := []cliGolden{
		{name: "lbsim", argv: []string{"lbsim", "-topo", "grid:10x10", "-workload", "fib:13", "-strategy", "cwn:9:2"}},
		{name: "serve", argv: []string{"serve", "-jobs", "80", "-gaps", "300,80"}},
		{name: "sweep-spec", argv: []string{"sweep", "-spec", filepath.Join(specDir, "comparison.json")}},
		{name: "paper", argv: []string{"paper", "-quick", "-exp", "table1,table2,table3,ablation,commratio,diameter,imbalance"}},
		{name: "optimize", argv: []string{"optimize", "-quick"}},
		{name: "validate", argv: []string{"validate", "-quick"}},
		{
			name: "sweep-scenario",
			argv: []string{"sweep", "-topos", "grid:8x8", "-workloads", "fib:11", "-strategies", "cwn:9:2,gm:1:2:20",
				"-repeats", "2", "-scenario", cliScenario, "-csv", "out.csv", "-trace-out", "trace.json"},
			files:   []string{"out.csv"},
			digests: []string{"trace.json"},
		},
		{
			name: "serve-scenario",
			argv: []string{"serve", "-topos", "grid:8x8", "-strategies", "cwn:9:2,gm:1:2:20", "-jobs", "60", "-gaps", "150",
				"-scenario", cliScenario, "-csv", "out.csv", "-trace-out", "trace.json"},
			files:   []string{"out.csv"},
			digests: []string{"trace.json"},
		},
	}
	for _, e := range cliExamples {
		gs = append(gs, cliGolden{name: "example-" + e, argv: []string{e}})
	}
	return gs
}

// cliContract lists invocations that must fail as a usage error.
var cliContract = [][]string{
	{"lbsim", "-load", "bogus"},
	{"lbsim", "-hoptime", "-5"},
	{"lbsim", "-hoptime", "9223372036854775000"},
	{"sweep", "-retry-limit", "-1"},
	{"serve", "-retry-limit", "-1"},
	{"serve", "-scenario", "garbage"},
	{"sweep", "-repeats", "0"},
	{"sweep", "-repeats", "-2"},
	{"paper", "-exp", "bogus"},
	{"paper", "-exp", "table1,bogus"},
	{"optimize", "-scheme", "bogus"},
	{"lbsim", "-chart"},
	{"lbsim", "-monitor", "-2"},
	{"sweep", "-workers", "-1"},
	{"serve", "-workers", "-1"},
	{"sweep", "-topos", "grid:4x4", "-workloads", "fib:9", "-strategies", "cwn:9:2", "-scenario", "droplink:a=0:b=5@t=50"},
	{"serve", "-topos", "grid:4x4", "-strategies", "cwn:9:2", "-jobs", "5", "-gaps", "100", "-scenario", "droplink:a=0:b=5@t=50"},
	{"sweep", "-topos", "grid:1x2", "-workloads", "fib:5", "-strategies", "cwn:9:2", "-scenario", "fail:pes=0@t=10,fail:pes=1@t=20"},
	{"sweep", "-topos", "grid:4x4", "-workloads", "fib:5", "-strategies", "cwn:9:2", "-scenario", "chaos:mtbf=0.001:mttr=1@seed=1,fail:pes=0@t=5"},
}

func TestCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every command")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator))
	for _, c := range cliCommands {
		build.Args = append(build.Args, "./cmd/"+c)
	}
	for _, e := range cliExamples {
		build.Args = append(build.Args, "./examples/"+e)
	}
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	specDir, err := filepath.Abs(filepath.Join("examples", "sweeps"))
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range cliGoldens(specDir) {
		t.Run("golden/"+g.name, func(t *testing.T) {
			dir := t.TempDir()
			stdout, stderr, code := runCLI(t, bin, dir, g.argv)
			if code != 0 {
				t.Fatalf("%s: exit %d\nstderr:\n%s", strings.Join(g.argv, " "), code, stderr)
			}
			checkCLIGolden(t, g.name+".stdout", cliWallClock.ReplaceAll(stdout, []byte("${1}<masked>")))
			for _, f := range g.files {
				got, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				checkCLIGolden(t, g.name+"."+f, got)
			}
			for _, f := range g.digests {
				got, err := os.ReadFile(filepath.Join(dir, f))
				if err != nil {
					t.Fatal(err)
				}
				sum := fmt.Sprintf("sha256 %x, %d bytes\n", sha256.Sum256(got), len(got))
				checkCLIGolden(t, g.name+"."+f+".sha256", []byte(sum))
			}
		})
	}

	for _, argv := range cliContract {
		t.Run("contract/"+strings.Join(argv, " "), func(t *testing.T) {
			stdout, stderr, code := runCLI(t, bin, t.TempDir(), argv)
			if code != 2 || bytes.Count(stderr, []byte("\n")) != 1 || !bytes.HasSuffix(stderr, []byte("\n")) || len(stdout) != 0 {
				t.Fatalf("want exit 2, one stderr line, empty stdout; got exit %d\nstderr:\n%s\nstdout:\n%s", code, stderr, stdout)
			}
		})
	}
}

// runCLI runs argv[0] from bin with the rest as arguments in dir and
// returns its stdout, stderr and exit status.
func runCLI(t *testing.T, bin, dir string, argv []string) (stdout, stderr []byte, code int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(bin, argv[0]), argv[1:]...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.Bytes(), errb.Bytes(), code
}

// checkCLIGolden compares got with testdata/cli/name, or rewrites the
// golden under -update-cli-golden.
func checkCLIGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "cli", name)
	if *updateCLIGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-cli-golden to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(gl), len(wl)) {
		if gl[i] != wl[i] {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", name, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: got %d lines, want %d", name, len(gl), len(wl))
}
