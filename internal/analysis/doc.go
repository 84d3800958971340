// Package analysis is the repo's custom static-analysis suite: a
// small stdlib-only go/analysis-style framework plus the three simlint
// analyzers that enforce the simulator's core contracts at vet time.
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// an Analyzer owns a Run function over a per-package Pass — but
// depends only on the standard library, because this module vendors
// nothing and builds offline. cmd/simlint adapts the same analyzers to
// the `go vet -vettool` unitchecker protocol; see that command's doc
// for how CI runs the suite.
//
// # The analyzers
//
// detrand — determinism. A run must be a pure function of its seed and
// shard count: a K>=2 run equals its serial replay. In simulation-path
// packages (internal/sim,
// internal/machine, internal/scenario, internal/topology) the analyzer
// flags wall-clock reads (time.Now), draws from the process-global
// math/rand stream, and map iteration whose effects depend on the
// observed order — a map range is tolerated only when its body just
// collects keys/values into slices that a later sort.*/slices.* call
// in the same block orders, or only deletes from the ranged map.
// Functions tagged //simlint:observer (measurement code) must draw
// randomness only from streams tagged //simlint:obsstream: drawing the
// observer ticker's stagger phase from the shared simulation stream
// was the PR 2 bug where enabling SampleInterval changed the simulated
// result.
//
// statsmerge — shard-merge completeness. Every field of a struct
// tagged //simlint:mergeable must be referenced by the type's merge
// method (a method named merge or Merge taking one parameter of the
// same type), so a field added to machine.Stats but forgotten in the
// shard fold fails the build instead of silently dropping a statistic
// from every sharded run. Fields deliberately outside the merge carry
// //simlint:nomerge <reason>.
//
// poolsafe — free-list discipline. For types tagged //simlint:pooled
// and free functions tagged //simlint:free: a free function must zero
// every pointer-bearing field of its subject before parking it (or
// clear() / element-wipe a released []T slab), and callers must not
// touch an object after passing it to a free function — later
// statements in the same block that read the freed variable are
// flagged until the variable is rebound. Fields deliberately retained
// across recycles carry //simlint:keep <reason>.
//
// # Directive vocabulary
//
// All annotations are directive comments (hidden from godoc, like
// //go:build). Verbs with a <reason> operand are rejected when the
// reason is empty — an unexplained exception is itself a finding.
//
//	//simlint:pooled               on a type: recycled through a free list
//	//simlint:free                 on a func: parks its pooled param/result
//	//simlint:mergeable            on a struct: shard copies merge field-exactly
//	//simlint:nomerge <reason>     on a field: deliberately outside the merge
//	//simlint:keep <reason>        on a field: deliberately not zeroed on free
//	//simlint:observer             on a func: measurement code
//	//simlint:obsstream            on a field: the dedicated observer RNG
//
// # Suppressions
//
// A finding that is a deliberate, explained exception is silenced in
// place:
//
//	//lint:ignore detrand reason the analyzer cannot see
//
// The directive silences the named analyzers (comma-separated;
// "simlint" silences the whole suite) on its own line and, when it
// stands alone, on the next line. The reason is mandatory. Fixture
// tests (testdata/src/, driven by the analysistest subpackage) pin
// both the findings and the suppression behavior; the
// TestSuiteCleanOnRepo test and the CI simlint step hold the module
// itself at zero findings.
package analysis
