// Package lifecycle statically verifies state-lifecycle field coverage.
//
// A simulator run reuses state only through Clone (see DESIGN.md "State
// lifecycle"): the warm snapshot and every chain checkpoint hand out deep,
// independently evolving copies. A few components also reinitialize in
// place — a replacement policy's Reset(seed) and the DRAM model's Reset,
// which warm replay calls on a cloned snapshot, and rng.Xoshiro's Reseed
// and CopyStateFrom, which agent checkpoints restore through. These methods
// enumerate struct fields by hand, so a newly added field is invisible to
// them until each one is updated; this analyzer makes that a lint-time
// failure.
//
// Every named struct type that declares a Clone method is checked (matched
// case-insensitively on the leading letter, so clone counts too). Each
// lifecycle method the type declares — Clone, Reset/Reseed, and
// CopyFrom/CopyStateFrom — must cover every field, where a field f is
// covered when the method (or any same-package function it transitively
// calls) does one of:
//
//   - mentions x.f on a value x of the struct type — reading s.f in a
//     shape check inside a panic-guard (an if whose body only panics) does
//     NOT count, so deleting the copy line of a guard-checked field still
//     fails the lint;
//   - names f as a key in a composite literal of the struct type (a
//     positional literal covers every field);
//   - copies the whole receiver by value (`c := *p`) — this covers only
//     fields with no reference types inside (no slice/map/pointer/chan/
//     func/interface at any depth), because a value copy aliases, not
//     copies, reference fields.
//
// Clone is additionally checked for shallow aliasing: assigning a
// reference-typed field straight across (`c.buf = p.buf`, or `buf: p.buf`
// in a composite literal) shares the underlying storage between the clone
// and the original and is reported at the assignment.
//
// Fields that are deliberately outside the lifecycle — immutable
// construction-time configuration, lookup tables shared between clones,
// external instrumentation a clone leaves behind — are annotated at the
// field declaration:
//
//	//detlint:lifecycle-skip <reason>
//
// The reason is mandatory. The annotation exempts the field from coverage
// in every lifecycle method, so use it only for fields the lifecycle
// genuinely must not (or need not) touch.
package lifecycle

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"streamline/internal/analysis"
)

// Analyzer is the lifecycle linter.
var Analyzer = &analysis.Analyzer{
	Name: "lifecycle",
	Doc:  "every field of a struct that declares Clone must be covered by each lifecycle method it declares (Clone, Reset/Reseed, CopyFrom/CopyStateFrom) or annotated //detlint:lifecycle-skip",
	Run:  run,
}

const skipMarker = "detlint:lifecycle-skip"

func run(pass *analysis.Pass) error {
	in := newIndex(pass)
	skips := collectSkips(pass)
	for _, name := range pass.Pkg.Scope().Names() {
		tn, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		checkStruct(pass, in, skips, named, st)
	}
	return nil
}

// methodRole classifies a method name into a lifecycle role, or "".
func methodRole(name string) string {
	switch name {
	case "Reset", "reset", "Reseed", "reseed":
		return "Reset"
	case "Clone", "clone":
		return "Clone"
	case "CopyFrom", "copyFrom", "CopyStateFrom", "copyStateFrom":
		return "CopyFrom"
	}
	return ""
}

// checkStruct audits one candidate type: if it declares Clone, every field
// must be covered by each lifecycle method it declares.
func checkStruct(pass *analysis.Pass, in *index, skips skipSet, named *types.Named, st *types.Struct) {
	decls := map[string]*ast.FuncDecl{} // role -> method decl
	for i := 0; i < named.NumMethods(); i++ {
		m := named.Method(i)
		role := methodRole(m.Name())
		if role == "" {
			continue
		}
		if d := in.decls[m]; d != nil && d.Body != nil && decls[role] == nil {
			decls[role] = d
		}
	}
	if decls["Clone"] == nil {
		return // not a lifecycle struct
	}
	for _, role := range []string{"Reset", "Clone", "CopyFrom"} {
		decl := decls[role]
		if decl == nil {
			continue
		}
		cov := in.coverage(named, decl)
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if skips.covers(pass, f) {
				continue
			}
			if cov.mentioned[f.Name()] {
				continue
			}
			if cov.wholeCopy && valueOnly(f.Type(), nil) {
				continue
			}
			pass.Reportf(decl.Name.Pos(), "%s.%s.%s is not covered by %s — assign or copy the field here, or annotate its declaration //detlint:lifecycle-skip <reason>",
				pass.Pkg.Name(), named.Obj().Name(), f.Name(), decl.Name.Name)
		}
		if role == "Clone" {
			reportShallowAliases(pass, in, skips, named, st, decl)
		}
	}
}

// reportShallowAliases flags reference-typed fields that Clone copies by
// plain aliasing assignment instead of a deep copy.
func reportShallowAliases(pass *analysis.Pass, in *index, skips skipSet, named *types.Named, st *types.Struct, decl *ast.FuncDecl) {
	ref := map[string]bool{}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !valueOnly(f.Type(), nil) && !skips.covers(pass, f) {
			ref[f.Name()] = true
		}
	}
	if len(ref) == 0 {
		return
	}
	report := func(pos token.Pos, field string) {
		pass.Reportf(pos, "%s.%s.%s is a reference field aliased rather than deep-copied by %s: the clone shares the original's storage; copy it (append/make+copy/Clone), or annotate the field //detlint:lifecycle-skip <reason> if sharing is deliberate",
			pass.Pkg.Name(), named.Obj().Name(), field, decl.Name.Name)
	}
	for _, body := range in.reach(decl) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok || !ref[sel.Sel.Name] || !in.isRecvType(named, sel.X) {
						continue
					}
					if aliasOf(in, named, s.Rhs[i], sel.Sel.Name) {
						report(s.Pos(), sel.Sel.Name)
					}
				}
			case *ast.CompositeLit:
				if !in.isRecvLit(named, s) {
					return true
				}
				for _, elt := range s.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok || !ref[key.Name] {
						continue
					}
					if aliasOf(in, named, kv.Value, key.Name) {
						report(kv.Pos(), key.Name)
					}
				}
			}
			return true
		})
	}
}

// aliasOf reports whether expr is exactly a bare selector of the same
// field on another value of the struct type — the shallow-share pattern.
func aliasOf(in *index, named *types.Named, expr ast.Expr, field string) bool {
	for {
		p, ok := expr.(*ast.ParenExpr)
		if !ok {
			break
		}
		expr = p.X
	}
	sel, ok := expr.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == field && in.isRecvType(named, sel.X)
}

// ---------------------------------------------------------------- index

// index caches the package-wide facts the per-struct checks share: the
// declaration of every function, the set of always-panicking functions
// (whose guard-ifs do not count as coverage), and per-(type, method)
// coverage results.
type index struct {
	pass     *analysis.Pass
	decls    map[*types.Func]*ast.FuncDecl
	terminal map[*ast.FuncDecl]bool
}

func newIndex(pass *analysis.Pass) *index {
	in := &index{
		pass:     pass,
		decls:    map[*types.Func]*ast.FuncDecl{},
		terminal: map[*ast.FuncDecl]bool{},
	}
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				in.decls[fn] = fd
			}
		}
	}
	// Terminal functions (bodies that end in panic, possibly through
	// another terminal function) are failure paths: shape checks guarding
	// them are not state coverage. Two passes close the one level of
	// indirection of a panicking helper called from a guard.
	for i := 0; i < 2; i++ {
		for _, fd := range in.decls {
			if !in.terminal[fd] && in.endsInPanic(fd.Body.List) {
				in.terminal[fd] = true
			}
		}
	}
	return in
}

// endsInPanic reports whether the last statement of stmts is a call to
// panic or to an already-known terminal function.
func (in *index) endsInPanic(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	es, ok := stmts[len(stmts)-1].(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return false
	}
	return in.isPanicCall(call)
}

// isPanicCall reports whether call invokes panic or a terminal function.
func (in *index) isPanicCall(call *ast.CallExpr) bool {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := in.pass.TypesInfo.Uses[f].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
		if fn, ok := in.pass.TypesInfo.Uses[f].(*types.Func); ok {
			return in.terminal[in.decls[fn]]
		}
	case *ast.SelectorExpr:
		if fn, ok := in.pass.TypesInfo.Uses[f.Sel].(*types.Func); ok {
			return in.terminal[in.decls[fn]]
		}
	}
	return false
}

// isGuard reports whether s is a panic-guard: an if (with no else) whose
// body does nothing but fail — every statement a plain expression or
// assignment, the last one a panic/terminal call. Field reads inside such
// guards are shape checks, not coverage.
func (in *index) isGuard(s *ast.IfStmt) bool {
	if s.Else != nil || len(s.Body.List) == 0 {
		return false
	}
	for _, st := range s.Body.List {
		switch st.(type) {
		case *ast.ExprStmt, *ast.AssignStmt, *ast.DeclStmt:
		default:
			return false
		}
	}
	return in.endsInPanic(s.Body.List)
}

// reach returns the bodies of decl and every same-package function it
// transitively calls (static calls only; interface dispatch is a package
// boundary the callee's own package audits).
func (in *index) reach(decl *ast.FuncDecl) []*ast.BlockStmt {
	visited := map[*ast.FuncDecl]bool{decl: true}
	work := []*ast.FuncDecl{decl}
	var bodies []*ast.BlockStmt
	for len(work) > 0 {
		fd := work[len(work)-1]
		work = work[:len(work)-1]
		bodies = append(bodies, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			var obj types.Object
			switch f := call.Fun.(type) {
			case *ast.Ident:
				obj = in.pass.TypesInfo.Uses[f]
			case *ast.SelectorExpr:
				obj = in.pass.TypesInfo.Uses[f.Sel]
			}
			fn, ok := obj.(*types.Func)
			if !ok {
				return true
			}
			if d := in.decls[fn]; d != nil && !visited[d] {
				visited[d] = true
				work = append(work, d)
			}
			return true
		})
	}
	return bodies
}

// coverageInfo is what one method (plus its same-package callees) does to
// the fields of one struct type.
type coverageInfo struct {
	mentioned map[string]bool
	wholeCopy bool
}

// coverage computes decl's field coverage of named.
func (in *index) coverage(named *types.Named, decl *ast.FuncDecl) coverageInfo {
	cov := coverageInfo{mentioned: map[string]bool{}}
	nFields := 0
	if st, ok := named.Underlying().(*types.Struct); ok {
		nFields = st.NumFields()
	}
	for _, body := range in.reach(decl) {
		var walk func(n ast.Node) bool
		walk = func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.IfStmt:
				if in.isGuard(s) {
					// Walk only the init statement (its definitions may be
					// used after the guard); cond and body are failure
					// checks, not coverage.
					if s.Init != nil {
						ast.Inspect(s.Init, walk)
					}
					return false
				}
			case *ast.SelectorExpr:
				if in.isRecvType(named, s.X) {
					cov.mentioned[s.Sel.Name] = true
				}
			case *ast.CompositeLit:
				if in.isRecvLit(named, s) {
					positional := false
					for _, elt := range s.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								cov.mentioned[key.Name] = true
							}
						} else {
							positional = true
						}
					}
					if positional && len(s.Elts) == nFields {
						// A full positional literal names every field.
						cov.wholeCopy = true
					}
				}
			case *ast.StarExpr:
				// `c := *p` / `*dst = *src`: a whole-value copy (or an
				// explicit deref of the receiver type, which only occurs in
				// value-copy positions in this grammar).
				if t := in.pass.TypesInfo.Types[s.X].Type; t != nil {
					if p, ok := t.Underlying().(*types.Pointer); ok && sameNamed(p.Elem(), named) {
						cov.wholeCopy = true
					}
				}
			}
			return true
		}
		ast.Inspect(body, walk)
	}
	return cov
}

// isRecvType reports whether expr's static type is the struct type or a
// pointer to it.
func (in *index) isRecvType(named *types.Named, expr ast.Expr) bool {
	t := in.pass.TypesInfo.Types[expr].Type
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return sameNamed(t, named)
}

// isRecvLit reports whether lit is a composite literal of the struct type
// (directly or through &T{...}).
func (in *index) isRecvLit(named *types.Named, lit *ast.CompositeLit) bool {
	t := in.pass.TypesInfo.Types[lit].Type
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	return sameNamed(t, named)
}

// sameNamed reports whether t is the given named type.
func sameNamed(t types.Type, named *types.Named) bool {
	n, ok := t.(*types.Named)
	return ok && n.Obj() == named.Obj()
}

// valueOnly reports whether t contains no reference types at any depth —
// the fields a whole-struct value copy genuinely copies. seen breaks
// recursive type cycles (any cycle necessarily goes through a pointer, but
// guard anyway).
func valueOnly(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return true
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return true
	case *types.Array:
		return valueOnly(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !valueOnly(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	default:
		// Pointer, slice, map, chan, func, interface: reference semantics.
		return false
	}
}

// ---------------------------------------------------------------- skips

// skipKey identifies one (file, line) a lifecycle-skip covers.
type skipKey struct {
	file string
	line int
}

type skipSet map[skipKey]bool

// covers reports whether the field declaration is skip-annotated.
func (s skipSet) covers(pass *analysis.Pass, f *types.Var) bool {
	p := pass.Fset.Position(f.Pos())
	return s[skipKey{p.Filename, p.Line}]
}

// collectSkips gathers //detlint:lifecycle-skip annotations. A skip
// trailing a field declaration covers that field only; a skip on a line of
// its own covers the field on the next line. A reasonless skip is itself
// reported.
func collectSkips(pass *analysis.Pass) skipSet {
	set := skipSet{}
	for _, f := range pass.Files {
		fieldLines := map[int]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					fieldLines[pass.Fset.Position(fld.Pos()).Line] = true
				}
			}
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+skipMarker)
				if !ok {
					continue
				}
				// A reason that is itself a `//` comment is no reason
				// (guards against stacked comment markers).
				if r := strings.TrimSpace(text); r == "" || strings.HasPrefix(r, "//") {
					pass.Reportf(c.Slash, "//detlint:lifecycle-skip needs a reason: `//detlint:lifecycle-skip <reason>`")
					continue
				}
				p := pass.Fset.Position(c.Slash)
				set[skipKey{p.Filename, p.Line}] = true
				if !fieldLines[p.Line] {
					set[skipKey{p.Filename, p.Line + 1}] = true
				}
			}
		}
	}
	return set
}
