package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// importSurface is every repository package the benchmark may use. A
// change that claims a gain may not edit bench/, so bench/ must not
// call what later work is expected to rewrite: the engine (sim), the
// compiler internals (midend, mat), equiv, issu, and the older perf
// harness whose generators are re-implemented here.
var importSurface = map[string]bool{
	"microp4":                    true,
	"microp4/internal/lib":       true,
	"microp4/internal/pkt":       true,
	"microp4/internal/netsim":    true,
	"microp4/internal/ctrlplane": true,
	"microp4/internal/flow":      true,
	"microp4/internal/trace":     true,
	"microp4/internal/obs":       true,
}

// TestImportSurface walks every Go file of bench/ (tests included) and
// fails on an import outside the surface, and on any call to a wire
// codec function (Encode*/Decode*), which the messaging rework replaces.
func TestImportSurface(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no Go files found: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parser.ParseFile(fset, name, src, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := map[string]string{} // package identifier in this file -> import path
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			id := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				id = imp.Name.Name
			}
			local[id] = path
			first := strings.SplitN(path, "/", 2)[0]
			if first != "microp4" {
				if strings.Contains(first, ".") {
					t.Errorf("%s imports %s: outside the standard library and this module", name, path)
				}
				continue
			}
			if !importSurface[path] {
				t.Errorf("%s imports %s: outside the benchmark's import surface", name, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkgID, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			path := local[pkgID.Name]
			if strings.HasPrefix(path, "microp4") &&
				(strings.HasPrefix(sel.Sel.Name, "Encode") || strings.HasPrefix(sel.Sel.Name, "Decode")) {
				t.Errorf("%s calls %s.%s: codec functions are off the import surface", name, pkgID.Name, sel.Sel.Name)
			}
			return true
		})
	}
}
