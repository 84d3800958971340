package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Detrand flags nondeterminism sources in simulation-path packages:
// wall-clock reads, draws from the process-global math/rand stream,
// and map iteration whose observed order can leak into results. The
// simulator's contract is that a run is a pure function of its seed and
// shard count — a K>=2 run must equal its serial replay — so any
// unordered or ambient input in
// internal/sim, internal/machine, internal/scenario or
// internal/topology is a silent determinism killer.
//
// A map range is tolerated only in the classic collect-then-sort
// shape: every statement in the loop body either appends a range
// variable to a slice that a later sort.* / slices.* call in the same
// block orders, or deletes from the ranged map itself.
//
// Measurement code tagged //simlint:observer must draw randomness
// (ticker stagger phases) only from streams tagged //simlint:obsstream
// — drawing from the shared simulation stream was the PR 2 bug where
// configuring SampleInterval reordered the simulation's tie-break
// draws: the observer must not perturb the observed.
var Detrand = &Analyzer{
	Name: "detrand",
	Doc:  "flag wall-clock time, global math/rand and unordered map iteration in simulation-path packages",
	Run:  runDetrand,
}

// simPathSuffixes are the package path components that mark
// simulation-path code. Matching is by path segment, so both
// cwnsim/internal/sim and a fixture module's internal/sim qualify.
var simPathSuffixes = []string{
	"internal/sim",
	"internal/machine",
	"internal/scenario",
	"internal/topology",
}

func isSimPath(path string) bool {
	for _, n := range simPathSuffixes {
		if path == n || strings.HasSuffix(path, "/"+n) || strings.Contains(path, "/"+n+"/") || strings.HasPrefix(path, n+"/") {
			return true
		}
	}
	return false
}

// randConstructors are the math/rand package-level functions that
// build an explicitly-seeded generator rather than drawing from the
// global stream.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runDetrand(pass *Pass) error {
	if !isSimPath(pass.Pkg.Path()) {
		return nil
	}
	tags := pass.CollectTags()
	for _, file := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(file.FileStart).Filename, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				pass.checkAmbientInput(n.Sel)
			case *ast.RangeStmt:
				pass.checkMapRange(file, n)
			case *ast.FuncDecl:
				if obj := pass.TypesInfo.Defs[n.Name]; obj != nil {
					if _, ok := tags.FuncTag(obj, "observer"); ok {
						pass.checkObserverDraws(n)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkAmbientInput reports uses of time.Now and of global math/rand
// top-level functions.
func (pass *Pass) checkAmbientInput(id *ast.Ident) {
	fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods are fine: rng.Intn on an owned stream
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Now" {
			pass.Reportf(id.Pos(), "time.Now is wall-clock, not virtual time: simulation-path code must derive all times from the engine clock (sim.Engine.Now) so runs are pure functions of the seed")
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(id.Pos(), "%s.%s draws from the process-global random stream: simulation-path code must use an explicitly seeded *rand.Rand (e.g. sim.Engine.Rng or a salted stream) so runs are reproducible", fn.Pkg().Name(), fn.Name())
		}
	}
}

// checkMapRange reports a range over a map unless the body only
// collects keys/values into slices that are subsequently sorted in the
// enclosing block (or only deletes from the ranged map).
func (pass *Pass) checkMapRange(file *ast.File, rs *ast.RangeStmt) {
	tv, ok := pass.TypesInfo.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var collected []string
	benign := true
	for _, stmt := range rs.Body.List {
		switch s := stmt.(type) {
		case *ast.AssignStmt:
			if target, ok := pass.appendTarget(s); ok {
				collected = append(collected, target)
				continue
			}
			benign = false
		case *ast.ExprStmt:
			if pass.isDeleteFrom(s.X, rs.X) {
				continue
			}
			benign = false
		default:
			benign = false
		}
		if !benign {
			break
		}
	}
	if benign {
		for _, target := range collected {
			if !pass.sortedLater(file, rs, target) {
				benign = false
				break
			}
		}
	}
	if !benign {
		pass.Reportf(rs.Pos(), "map iteration order is nondeterministic and this loop's effects depend on it: collect into a slice and sort before use, or restructure to avoid the map (determinism contract: a run is a pure function of its seed)")
	}
}

// appendTarget matches `X = append(X, ...)` and returns X's source
// form.
func (pass *Pass) appendTarget(s *ast.AssignStmt) (string, bool) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return "", false
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) < 2 || call.Ellipsis.IsValid() {
		return "", false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return "", false
	}
	lhs := types.ExprString(s.Lhs[0])
	if types.ExprString(call.Args[0]) != lhs {
		return "", false
	}
	return lhs, true
}

// isDeleteFrom matches `delete(m, k)` on the ranged map m.
func (pass *Pass) isDeleteFrom(e ast.Expr, ranged ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := pass.TypesInfo.Uses[fn].(*types.Builtin); !ok || b.Name() != "delete" {
		return false
	}
	return types.ExprString(call.Args[0]) == types.ExprString(ranged)
}

// sortedLater reports whether a statement after rs in its enclosing
// statement list passes target to a sort or slices function.
func (pass *Pass) sortedLater(file *ast.File, rs *ast.RangeStmt, target string) bool {
	list, idx := enclosingList(file, rs)
	if list == nil {
		return false
	}
	for _, stmt := range list[idx+1:] {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
				return true
			}
			for _, arg := range call.Args {
				if types.ExprString(arg) == target {
					found = true
				}
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// enclosingList finds the statement list directly containing stmt and
// its index there.
func enclosingList(file *ast.File, stmt ast.Stmt) ([]ast.Stmt, int) {
	var list []ast.Stmt
	idx := -1
	ast.Inspect(file, func(n ast.Node) bool {
		if idx >= 0 {
			return false
		}
		var stmts []ast.Stmt
		switch n := n.(type) {
		case *ast.BlockStmt:
			stmts = n.List
		case *ast.CaseClause:
			stmts = n.Body
		case *ast.CommClause:
			stmts = n.Body
		default:
			return true
		}
		for i, s := range stmts {
			if s == stmt {
				list, idx = stmts, i
				return false
			}
		}
		return true
	})
	return list, idx
}

// checkObserverDraws flags draws from any *math/rand.Rand inside an
// observer-tagged function unless the stream is rooted at an object
// tagged //simlint:obsstream.
func (pass *Pass) checkObserverDraws(fd *ast.FuncDecl) {
	tags := pass.CollectTags()
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.TypesInfo.Selections[sel]
		if !ok || selection.Kind() != types.MethodVal {
			return true
		}
		recv := selection.Recv()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		named, ok := recv.(*types.Named)
		if !ok || named.Obj().Pkg() == nil {
			return true
		}
		if p := named.Obj().Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
			return true
		}
		if named.Obj().Name() != "Rand" {
			return true
		}
		if pass.rootedAtObsStream(tags, sel.X) {
			return true
		}
		pass.Reportf(sel.Pos(), "observer code draws from a simulation RNG stream: measurement must use its own salted stream (tag the field //simlint:obsstream) so that enabling sampling cannot reorder the simulation's tie-break draws")
		return true
	})
}

// rootedAtObsStream reports whether the receiver expression resolves
// through an object tagged //simlint:obsstream.
func (pass *Pass) rootedAtObsStream(tags *Tags, e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		obj := pass.TypesInfo.Uses[e]
		_, ok := tags.FieldTag(obj, "obsstream")
		return ok
	case *ast.SelectorExpr:
		obj := pass.TypesInfo.Uses[e.Sel]
		if _, ok := tags.FieldTag(obj, "obsstream"); ok {
			return true
		}
		return pass.rootedAtObsStream(tags, e.X)
	case *ast.ParenExpr:
		return pass.rootedAtObsStream(tags, e.X)
	}
	return false
}
