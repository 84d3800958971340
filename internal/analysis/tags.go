package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The analyzers' contracts are wired to the code under analysis with
// `//simlint:<verb>` directive comments (directive comments are hidden
// from godoc, like //go:build). Verbs:
//
//	pooled               on a type: objects are recycled through a free list
//	free                 on a func: returns its pooled param/result to a free list
//	mergeable            on a struct type: shard copies must merge field-exactly
//	nomerge <reason>     on a field: deliberately not folded by the merge
//	keep <reason>        on a field: deliberately not zeroed by the free func
//	observer             on a func: measurement code; must not touch the
//	                     simulation RNG stream
//	obsstream            on a field/var: the dedicated observer RNG stream
type Tags struct {
	// Types, Funcs and Fields map tagged objects to their directives.
	Types  map[types.Object][]Directive
	Funcs  map[types.Object][]Directive
	Fields map[types.Object][]Directive
}

// Directive is one parsed //simlint:<verb> args comment.
type Directive struct {
	Verb string
	Args string // remainder after the verb, trimmed (reason or operand)
}

const directivePrefix = "//simlint:"

func parseDirectives(cgs ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, cg := range cgs {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			verb, args, _ := strings.Cut(rest, " ")
			out = append(out, Directive{Verb: verb, Args: strings.TrimSpace(args)})
		}
	}
	return out
}

// Has reports whether verb appears among the directives.
func hasVerb(ds []Directive, verb string) bool {
	for _, d := range ds {
		if d.Verb == verb {
			return true
		}
	}
	return false
}

// CollectTags scans the pass's files for simlint directives and
// resolves them to type-checker objects. Cached per pass.
func (p *Pass) CollectTags() *Tags {
	if p.tags != nil {
		return p.tags
	}
	t := &Tags{
		Types:  make(map[types.Object][]Directive),
		Funcs:  make(map[types.Object][]Directive),
		Fields: make(map[types.Object][]Directive),
	}
	p.tags = t
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if ds := parseDirectives(d.Doc); len(ds) > 0 {
					if obj := p.TypesInfo.Defs[d.Name]; obj != nil {
						t.Funcs[obj] = ds
					}
				}
			case *ast.GenDecl:
				declDirs := parseDirectives(d.Doc)
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					ds := append(parseDirectives(ts.Doc, ts.Comment), declDirs...)
					obj := p.TypesInfo.Defs[ts.Name]
					if obj != nil && len(ds) > 0 {
						t.Types[obj] = ds
					}
					if st, ok := ts.Type.(*ast.StructType); ok {
						p.collectFieldTags(t, st)
					}
				}
			}
		}
	}
	return t
}

func (p *Pass) collectFieldTags(t *Tags, st *ast.StructType) {
	for _, field := range st.Fields.List {
		ds := parseDirectives(field.Doc, field.Comment)
		if len(ds) == 0 {
			continue
		}
		for _, name := range field.Names {
			if obj := p.TypesInfo.Defs[name]; obj != nil {
				t.Fields[obj] = ds
			}
		}
	}
}

// TaggedType reports whether the named type (or the named type behind
// a pointer) carries the verb.
func (t *Tags) TaggedType(typ types.Type, verb string) (*types.TypeName, bool) {
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	named, ok := typ.(*types.Named)
	if !ok {
		return nil, false
	}
	if hasVerb(t.Types[named.Obj()], verb) {
		return named.Obj(), true
	}
	return nil, false
}

// FuncTag returns the directive with the given verb on fn, if any.
func (t *Tags) FuncTag(fn types.Object, verb string) (Directive, bool) {
	for _, d := range t.Funcs[fn] {
		if d.Verb == verb {
			return d, true
		}
	}
	return Directive{}, false
}

// FieldTag returns the directive with the given verb on the field or
// variable object, if any.
func (t *Tags) FieldTag(obj types.Object, verb string) (Directive, bool) {
	for _, d := range t.Fields[obj] {
		if d.Verb == verb {
			return d, true
		}
	}
	return Directive{}, false
}
