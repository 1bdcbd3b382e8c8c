package core

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestConcurrencyFanOutRunsEveryPiece: every piece runs exactly once,
// with its own index, and FanOut returns only after all of them.
func TestConcurrencyFanOutRunsEveryPiece(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7} {
		ran := make([]atomic.Int32, n)
		var done atomic.Int32
		if err := FanOut(n, func(i int) error {
			ran[i].Add(1)
			done.Add(1)
			return nil
		}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := int(done.Load()); got != n {
			t.Errorf("n=%d: %d pieces finished before FanOut returned", n, got)
		}
		for i := range ran {
			if c := ran[i].Load(); c != 1 {
				t.Errorf("n=%d: piece %d ran %d times", n, i, c)
			}
		}
	}
}

// TestConcurrencyFanOutFirstErrorByIndex: the error returned is the
// lowest-indexed failing piece's even when it fails last in time, and a
// failing piece does not stop the others.
func TestConcurrencyFanOutFirstErrorByIndex(t *testing.T) {
	const n = 6
	errs := make([]error, n)
	for i := range errs {
		errs[i] = fmt.Errorf("piece %d", i)
	}
	for _, failing := range [][]int{{5}, {0}, {2, 4}, {0, 3, 5}} {
		var others sync.WaitGroup
		others.Add(len(failing) - 1)
		var ran atomic.Int32
		err := FanOut(n, func(i int) error {
			ran.Add(1)
			switch {
			case i == failing[0]:
				others.Wait() // the lowest failure comes last
				return errs[i]
			case slices.Contains(failing[1:], i):
				defer others.Done()
				return errs[i]
			}
			return nil
		})
		if !errors.Is(err, errs[failing[0]]) {
			t.Errorf("failing %v: got %v, want %v", failing, err, errs[failing[0]])
		}
		if ran.Load() != n {
			t.Errorf("failing %v: %d of %d pieces ran", failing, ran.Load(), n)
		}
	}
}

// TestConcurrencyFanOutSmallN: n = 0 runs nothing and n = 1 runs its
// one piece, neither panicking.
func TestConcurrencyFanOutSmallN(t *testing.T) {
	if err := FanOut(0, func(int) error { panic("piece run for n = 0") }); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	want := errors.New("only piece")
	got := -1
	if err := FanOut(1, func(i int) error { got = i; return want }); !errors.Is(err, want) || got != 0 {
		t.Fatalf("n=1: err %v, ran piece %d", err, got)
	}
}

// TestEnginesStartGoroutinesOnlyInFanOut: a query at Parallelism P runs
// at most P goroutines only if every goroutine of the engines is started
// by FanOut, whose callers size it by ExecConfig.Workers. This parses
// the engines' non-test sources and rejects any other go statement.
func TestEnginesStartGoroutinesOnlyInFanOut(t *testing.T) {
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
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if ok && fn.Recv == nil && fn.Name.Name == "FanOut" && f.Name.Name == "core" {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					if g, ok := n.(*ast.GoStmt); ok {
						t.Errorf("%s: go statement outside core.FanOut", fset.Position(g.Pos()))
					}
					return true
				})
			}
		}
		if parsed == 0 {
			t.Errorf("%s: no Go sources found", dir)
		}
	}
}
