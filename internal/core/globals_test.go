package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// immutableVars lists the package-level variables allowed in this
// package: tables that are written once at init and only read afterwards.
// Everything mutable a run touches — pools, snapshots, the checkpoint tree,
// the memo, the store handle, counters — lives on an Engine.
var immutableVars = map[string]bool{
	"defaultMachine": true, // DefaultConfig's shared, read-only Skylake
}

// TestNoPackageState keeps process globals out of the package: a
// package-level var in any non-test file fails unless immutableVars
// names it.
func TestNoPackageState(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if id.Name != "_" && !immutableVars[id.Name] {
						t.Errorf("%s: package-level var %s; keep mutable state on Engine or add an immutable table to immutableVars",
							fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
}
