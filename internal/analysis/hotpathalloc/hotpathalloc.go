// Package hotpathalloc statically verifies allocation freedom on the
// simulator's hot paths.
//
// The fast path (cache Access/fill/InstallPrefetch, hier accessFast/
// AccessBatch, the batched core loops) holds the headline throughput
// numbers, and its 0-alloc property is enforced at test time by
// testing.AllocsPerRun probes. Those probes only see the inputs a test
// happens to drive; this analyzer makes the property
// a static one — every construct that can heap-allocate inside an
// annotated function is a diagnostic with a precise position.
//
// A hot function is marked in its doc comment:
//
//	//detlint:hotpath
//
// Inside a hot function the analyzer flags:
//
//   - make/new and composite literals of slice or map type (heap
//     allocations; value-struct literals like Result{...} stay on the
//     stack and are fine);
//   - &T{...} — taking the address of a literal escapes it;
//   - append, unless the first argument is a slice expression (the
//     `buf[:0]` reuse idiom appends into preallocated capacity);
//   - function literals (closure allocation, and the capture slot often
//     escapes);
//   - go and defer statements;
//   - implicit interface conversions: an argument passed to an
//     interface-typed (including ...any variadic) parameter, or assigned
//     to an interface-typed variable, boxes its operand;
//   - string <-> []byte conversions (always copy);
//   - calls to same-package functions that are not themselves annotated
//     //detlint:hotpath — the transitive closure of the hot path must be
//     explicitly marked so a cold helper cannot hide an allocation;
//   - calls into stdlib packages other than math and math/bits (fmt, and
//     friends allocate freely).
//
// Calls through interfaces and into other streamline packages are trusted:
// dynamic dispatch is already devirtualized on the paths that matter (the
// devirtualization is itself what the polKind switch exists for), and each
// package's own hot functions are audited where they live.
//
// Failure paths are exempt: a call to panic, or to a same-package function
// that always panics (a shape-mismatch helper, say), is skipped along
// with its arguments — `panic(fmt.Sprintf(...))` on a corruption check
// costs nothing until the simulator is already dead.
package hotpathalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"streamline/internal/analysis"
)

// Analyzer is the hot-path allocation linter.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "functions annotated //detlint:hotpath must not allocate: no make/new/append-grow/closures/interface boxing, and callees must be annotated too",
	Run:  run,
}

const hotMarker = "detlint:hotpath"

// stdlibAllowed are the stdlib packages hot code may call: pure-register
// arithmetic helpers that never allocate.
var stdlibAllowed = map[string]bool{
	"math":      true,
	"math/bits": true,
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		hot:      map[*types.Func]bool{},
		decls:    map[*types.Func]*ast.FuncDecl{},
		terminal: map[*types.Func]bool{},
	}
	c.index()
	// Deterministic order: walk declarations file by file, not map order.
	for _, file := range pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok || !c.hot[fn] {
				continue
			}
			c.checkBody(fd)
		}
	}
	return nil
}

// checker carries the per-package state of one run.
type checker struct {
	pass     *analysis.Pass
	hot      map[*types.Func]bool
	decls    map[*types.Func]*ast.FuncDecl
	terminal map[*types.Func]bool
}

// index records every function declaration, which are annotated hot, and
// which are terminal (always panic).
func (c *checker) index() {
	for _, file := range c.pass.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c.decls[fn] = fd
			if hasMarker(fd) {
				c.hot[fn] = true
			}
		}
	}
	// Terminal functions: body ends in panic, possibly via another
	// terminal function (two passes close one level of indirection).
	for i := 0; i < 2; i++ {
		for fn, fd := range c.decls {
			if !c.terminal[fn] && c.endsInPanic(fd.Body.List) {
				c.terminal[fn] = true
			}
		}
	}
}

// hasMarker reports whether fd's doc comment carries //detlint:hotpath.
func hasMarker(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(c.Text, "//"+hotMarker) {
			return true
		}
	}
	return false
}

func (c *checker) endsInPanic(stmts []ast.Stmt) bool {
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
	return c.isPanicCall(call)
}

// isPanicCall reports whether call is panic(...) or a terminal function.
func (c *checker) isPanicCall(call *ast.CallExpr) bool {
	if b, ok := c.callee(call).(*types.Builtin); ok && b.Name() == "panic" {
		return true
	}
	if fn, ok := c.callee(call).(*types.Func); ok {
		return c.terminal[fn]
	}
	return false
}

// callee resolves a call's target object, if statically known.
func (c *checker) callee(call *ast.CallExpr) types.Object {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return c.pass.TypesInfo.Uses[f]
	case *ast.SelectorExpr:
		return c.pass.TypesInfo.Uses[f.Sel]
	}
	return nil
}

// checkBody walks one annotated function body.
func (c *checker) checkBody(fd *ast.FuncDecl) {
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			c.pass.Reportf(s.Pos(), "go statement in hotpath function %s allocates a goroutine", fd.Name.Name)
			return false
		case *ast.DeferStmt:
			c.pass.Reportf(s.Pos(), "defer in hotpath function %s allocates a defer record on non-trivial paths", fd.Name.Name)
			return false
		case *ast.FuncLit:
			c.pass.Reportf(s.Pos(), "function literal in hotpath function %s allocates a closure", fd.Name.Name)
			return false
		case *ast.UnaryExpr:
			if s.Op.String() == "&" {
				if _, ok := ast.Unparen(s.X).(*ast.CompositeLit); ok {
					c.pass.Reportf(s.Pos(), "&composite literal in hotpath function %s escapes to the heap", fd.Name.Name)
					return false
				}
			}
		case *ast.CompositeLit:
			if t := c.pass.TypesInfo.Types[s].Type; t != nil {
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map:
					c.pass.Reportf(s.Pos(), "%s literal in hotpath function %s heap-allocates its backing store", typeKind(t), fd.Name.Name)
				}
			}
		case *ast.AssignStmt:
			c.checkAssign(fd, s)
		case *ast.CallExpr:
			if c.isPanicCall(s) {
				return false // failure path: call and arguments exempt
			}
			c.checkCall(fd, s)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// typeKind names a composite's shape for the diagnostic.
func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}

// checkAssign flags assignments that box a concrete value into an
// interface-typed variable.
func (c *checker) checkAssign(fd *ast.FuncDecl, s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i, lhs := range s.Lhs {
		lt := c.pass.TypesInfo.Types[lhs].Type
		if lt == nil {
			if id, ok := lhs.(*ast.Ident); ok {
				if obj := c.pass.TypesInfo.Defs[id]; obj != nil {
					lt = obj.Type()
				}
			}
		}
		if lt == nil || !types.IsInterface(lt.Underlying()) {
			continue
		}
		rt := c.pass.TypesInfo.Types[s.Rhs[i]].Type
		if rt == nil || types.IsInterface(rt.Underlying()) || isNil(rt) {
			continue
		}
		c.pass.Reportf(s.Rhs[i].Pos(), "assignment boxes %s into an interface in hotpath function %s", rt, fd.Name.Name)
	}
}

func isNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

// checkCall flags allocating builtins, conversions, interface-boxing
// arguments, and calls to unannotated or untrusted functions.
func (c *checker) checkCall(fd *ast.FuncDecl, call *ast.CallExpr) {
	obj := c.callee(call)
	switch callee := obj.(type) {
	case *types.Builtin:
		switch callee.Name() {
		case "make":
			c.pass.Reportf(call.Pos(), "make in hotpath function %s allocates; preallocate in the constructor and reuse", fd.Name.Name)
		case "new":
			c.pass.Reportf(call.Pos(), "new in hotpath function %s allocates", fd.Name.Name)
		case "append":
			if len(call.Args) > 0 {
				if _, ok := ast.Unparen(call.Args[0]).(*ast.SliceExpr); !ok {
					c.pass.Reportf(call.Pos(), "append in hotpath function %s may grow its backing array; reslice a preallocated buffer (buf[:0]) instead", fd.Name.Name)
				}
			}
		}
		return
	case *types.Func:
		pkg := callee.Pkg()
		switch {
		case pkg == nil || pkg == c.pass.Pkg:
			// Same-package (or builtin-ish): require the hotpath marker so
			// the annotated closure is transitively explicit.
			if pkg == c.pass.Pkg && !c.hot[callee] && c.decls[callee] != nil {
				c.pass.Reportf(call.Pos(), "hotpath function %s calls %s, which is not annotated //detlint:hotpath; annotate it (and fix its allocations) or move the call off the hot path", fd.Name.Name, callee.Name())
			}
		case strings.HasPrefix(pkg.Path(), "streamline/"):
			// Other module packages are audited where they live.
		default:
			if !stdlibAllowed[pkg.Path()] {
				c.pass.Reportf(call.Pos(), "hotpath function %s calls %s.%s, which may allocate (only math and math/bits are allocation-trusted)", fd.Name.Name, pkg.Path(), callee.Name())
			}
		}
	case *types.TypeName:
		// Conversion T(x): flag the copying string<->[]byte pair.
		c.checkConversion(fd, call, callee.Type())
		return
	case nil:
		// Dynamic call (interface method value, func-typed field): trusted;
		// devirtualization is checked by the concrete implementations.
		// A conversion to an unnamed type (e.g. []byte(s)) also lands here.
		if len(call.Args) == 1 {
			if t := c.pass.TypesInfo.Types[call.Fun].Type; t != nil {
				if _, isSig := t.Underlying().(*types.Signature); !isSig {
					c.checkConversion(fd, call, t)
					return
				}
			}
		}
	}
	c.checkBoxedArgs(fd, call, obj)
}

// checkConversion flags string <-> []byte conversions, which always copy.
func (c *checker) checkConversion(fd *ast.FuncDecl, call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := c.pass.TypesInfo.Types[call.Args[0]].Type
	if from == nil {
		return
	}
	if (isString(to) && isByteSlice(from)) || (isByteSlice(to) && isString(from)) {
		c.pass.Reportf(call.Pos(), "string/[]byte conversion in hotpath function %s copies its operand", fd.Name.Name)
	}
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkBoxedArgs flags arguments implicitly converted to interface
// parameters — each such conversion boxes its operand on the heap.
func (c *checker) checkBoxedArgs(fd *ast.FuncDecl, call *ast.CallExpr, obj types.Object) {
	ft := c.pass.TypesInfo.Types[call.Fun].Type
	if ft == nil && obj != nil {
		ft = obj.Type()
	}
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				pt = params.At(params.Len() - 1).Type()
			} else if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil || !types.IsInterface(pt.Underlying()) {
			continue
		}
		at := c.pass.TypesInfo.Types[arg].Type
		if at == nil || types.IsInterface(at.Underlying()) || isNil(at) {
			continue
		}
		c.pass.Reportf(arg.Pos(), "argument boxes %s into an interface parameter in hotpath function %s", at, fd.Name.Name)
	}
}
