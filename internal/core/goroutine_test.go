package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestEnginesStartNoGoroutines: a query runs on its calling goroutine,
// and concurrency exists only across queries. This parses the engines'
// non-test sources and rejects any go statement.
func TestEnginesStartNoGoroutines(t *testing.T) {
	for _, dir := range []string{".", "../twig", "../relengine", "../relstore"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		parsed := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			parsed++
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					t.Errorf("%s: go statement in an engine package", fset.Position(g.Pos()))
				}
				return true
			})
		}
		if parsed == 0 {
			t.Errorf("%s: no Go sources found", dir)
		}
	}
}
