package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// apiExempt lists the exported functions and methods under internal/
// that stay exported although no non-test code calls them, each with
// the reason. A key is "pkgpath.Func", "pkgpath.Type.Method", or a bare
// package path, which exempts the whole package.
var apiExempt = map[string]string{
	"streamline/internal/payload.Bits.Unpack":      "root-package users reach it through streamline.Result.Decoded",
	"streamline/internal/payload.Bits.Clone":       "root-package users reach it through streamline.Result.Decoded",
	"streamline/internal/hier.Hierarchy.ProbeLLC":  "noise's tests probe the LLC through it",
	"streamline/internal/cache.Cache.QuotaDomains": "hier's quota tests read the LLC's domain count through it",
	"streamline/internal/cache.Cache.WayBudget":    "hier's quota tests read the LLC's way budgets through it",
	"streamline/internal/cache.Cache.LineAt":       "hier's CheckInclusion probe (export_test.go) reads cache ways through it",
	"streamline/internal/statetest":                "test-support package, imported only by _test.go files",
	"streamline/internal/analysis/analysistest":    "test-support package, imported only by _test.go files",
}

// TestInternalAPIClosed fails on any exported function or method under
// internal/ that no non-test code in the module references. A probe or
// reference implementation that only tests need belongs in a _test.go
// file of its package, and code nothing calls belongs nowhere. Methods
// that implement an interface method are exempt, as are the names in
// apiExempt; a row of apiExempt that exempts nothing fails too.
func TestInternalAPIClosed(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	// Objects are matched by key, not identity: an imported package's
	// objects come from export data and never equal the source-checked
	// objects of its own Load entry.
	referenced := map[string]bool{}
	var ifaces []*types.Interface
	seenPkg := map[*types.Package]bool{}
	var addIfaces func(p *types.Package)
	addIfaces = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			addIfaces(imp)
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, pkg := range pkgs {
		addIfaces(pkg.Types)
		for _, tv := range pkg.TypesInfo.Types {
			if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				// A function's references to itself do not count.
				self := ""
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := pkg.TypesInfo.Defs[fd.Name].(*types.Func); ok {
						self = funcKey(fn)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if fn, ok := pkg.TypesInfo.Uses[id].(*types.Func); ok {
							if k := funcKey(fn); k != self {
								referenced[k] = true
							}
						}
					}
					return true
				})
			}
		}
	}

	used := map[string]bool{}
	var open []string
	for _, pkg := range pkgs {
		path := pkg.ImportPath
		if !strings.HasPrefix(path, "streamline/internal/") {
			continue
		}
		if _, ok := apiExempt[path]; ok {
			used[path] = true
			continue
		}
		var fns []*types.Func
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				fns = append(fns, obj)
			case *types.TypeName:
				if named, ok := obj.Type().(*types.Named); ok && !obj.IsAlias() {
					for i := 0; i < named.NumMethods(); i++ {
						fns = append(fns, named.Method(i))
					}
				}
			}
		}
		for _, fn := range fns {
			if !fn.Exported() {
				continue
			}
			k := funcKey(fn)
			if referenced[k] || implementsInterface(fn, ifaces) {
				continue
			}
			if _, ok := apiExempt[k]; ok {
				used[k] = true
				continue
			}
			open = append(open, k)
		}
	}
	sort.Strings(open)
	for _, k := range open {
		t.Errorf("%s is exported but no non-test code references it: delete it, or move it to a _test.go file", k)
	}
	for k := range apiExempt {
		if !used[k] {
			t.Errorf("apiExempt names %s, which is not an unreferenced exported function, method or package under internal/", k)
		}
	}
}

// funcKey names a function or method by package path, receiver type
// name and name, which is stable across source and export data.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		switch t := t.(type) {
		case *types.Named:
			return fn.Pkg().Path() + "." + t.Obj().Name() + "." + fn.Name()
		default:
			// An interface method: the interface is unnamed here, so
			// key by name alone under the package.
			return fn.Pkg().Path() + ".(interface)." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// implementsInterface reports whether method fn's receiver type, or a
// pointer to it, implements an interface that declares a method of
// fn's name.
func implementsInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(t, it) || types.Implements(ptr, it) {
				return true
			}
			break
		}
	}
	return false
}
