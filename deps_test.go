package microp4_test

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// offLimits are the packages the public package must not link: the
// equivalence gate is a verification tool, and the embedded program
// catalog is only its (and the CLIs') input.
var offLimits = []string{"microp4/internal/equiv", "microp4/internal/lib"}

// TestPublicPackageDeps walks the imports of the non-test files of the
// public package and of every module package they reach, and fails if
// an off-limits package is reachable.
func TestPublicPackageDeps(t *testing.T) {
	via := map[string]string{"microp4": ""} // package -> an importer of it
	queue := []string{"microp4"}
	fset := token.NewFileSet()
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		dir := filepath.FromSlash("." + strings.TrimPrefix(pkg, "microp4"))
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files in %s (%v)", pkg, dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if !strings.HasPrefix(path, "microp4/") {
					continue
				}
				if _, ok := via[path]; !ok {
					via[path] = pkg
					queue = append(queue, path)
				}
			}
		}
	}
	for _, p := range offLimits {
		if importer, ok := via[p]; ok {
			chain := p
			for q := importer; q != ""; q = via[q] {
				chain = q + " -> " + chain
			}
			t.Errorf("public package reaches %s: %s", p, chain)
		}
	}
}
