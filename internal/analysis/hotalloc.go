package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// HotAlloc bans the allocation patterns that once cost the twig merge
// its speed (it built fmt-formatted string map keys per lookup) inside
// functions annotated //blas:hotpath:
//
//   - fmt.Sprintf / Sprint / Sprintln / Appendf calls — every call
//     allocates and reflects over its operands. fmt.Errorf is exempt:
//     error construction happens on paths that are about to abort.
//   - string concatenation inside loops (a + "x", s += "y") — each
//     iteration reallocates the accumulated string.
//   - string-built map keys (m[a+"/"+b], m[fmt.Sprintf(...)]) — the
//     key is allocated per lookup; key by a comparable struct, or
//     match on sorted integer ids as twig.foldLeaf does, instead.
//
// The annotation is a directive line in the function's doc comment:
//
//	//blas:hotpath
//
// Nested function literals inherit the enclosing annotation. The
// allocation guards (BenchmarkTraceOff, the AllocatesPerChunk and
// ZeroAlloc tests) prove the annotated paths allocate nothing, or once
// per arena chunk; this analyzer keeps the class of regression out at
// review time, and each package's TestHotpathAnnotations fails if the
// annotations drift off the guarded functions.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "ban fmt formatting, in-loop string concatenation and string-built map keys in //blas:hotpath functions",
	Run:  runHotAlloc,
}

// HotpathDirective is the annotation marking a function as part of a
// zero-alloc hot path.
const HotpathDirective = "//blas:hotpath"

// hasHotpath reports whether a doc comment carries the annotation.
func hasHotpath(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == HotpathDirective || strings.HasPrefix(c.Text, HotpathDirective+" ") {
			return true
		}
	}
	return false
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files() {
		fmtName := importName(f, "fmt")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasHotpath(fd.Doc) {
				continue
			}
			checkHotBody(pass, fmtName, fd.Body, false)
		}
	}
	return nil
}

// importName returns the local identifier for the given import path in
// f, or "" when the file does not import it.
func importName(f *ast.File, path string) string {
	for _, imp := range f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil || p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		return path[strings.LastIndex(path, "/")+1:]
	}
	return ""
}

// fmtAllocFuncs are the fmt functions banned on hot paths (Errorf is
// allowed: see HotAlloc).
var fmtAllocFuncs = map[string]bool{"Sprintf": true, "Sprint": true, "Sprintln": true, "Appendf": true}

// checkHotBody walks one annotated body. inLoop tracks whether the
// current node sits inside a for/range statement of the hot function.
func checkHotBody(pass *Pass, fmtName string, n ast.Node, inLoop bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if m == n {
				return true
			}
			checkHotBody(pass, fmtName, loopBody(m), true)
			return false
		case *ast.CallExpr:
			if name := fmtCallName(m, fmtName); name != "" {
				pass.Reportf(m.Pos(), "fmt.%s on a %s function allocates per call; build the value without fmt (error paths may use fmt.Errorf)", name, HotpathDirective)
			}
		case *ast.BinaryExpr:
			if inLoop && m.Op == token.ADD && containsStringLit(m) {
				pass.Reportf(m.Pos(), "string concatenation in a loop on a %s function reallocates per iteration; use a byte buffer or a comparable key", HotpathDirective)
			}
		case *ast.AssignStmt:
			if inLoop && m.Tok == token.ADD_ASSIGN && len(m.Rhs) == 1 && containsStringLit(m.Rhs[0]) {
				pass.Reportf(m.Pos(), "string += in a loop on a %s function reallocates per iteration; use a byte buffer", HotpathDirective)
			}
		case *ast.IndexExpr:
			if isStringBuiltKey(m.Index, fmtName) {
				pass.Reportf(m.Index.Pos(), "string-built map key on a %s function allocates per lookup; use a comparable struct key", HotpathDirective)
			}
		}
		return true
	})
}

func loopBody(n ast.Node) ast.Node {
	switch n := n.(type) {
	case *ast.ForStmt:
		return n.Body
	case *ast.RangeStmt:
		return n.Body
	}
	return n
}

// fmtCallName returns the banned fmt function name called by e, if any.
func fmtCallName(e *ast.CallExpr, fmtName string) string {
	sel, ok := e.Fun.(*ast.SelectorExpr)
	if !ok || fmtName == "" || !fmtAllocFuncs[sel.Sel.Name] {
		return ""
	}
	if id, ok := sel.X.(*ast.Ident); ok && id.Name == fmtName && id.Obj == nil {
		return sel.Sel.Name
	}
	return ""
}

// containsStringLit reports whether a +-chain contains a string literal
// operand — the syntactic signature of string concatenation (operand
// types are not available without a type-checker).
func containsStringLit(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.BasicLit:
		return e.Kind == token.STRING
	case *ast.ParenExpr:
		return containsStringLit(e.X)
	case *ast.BinaryExpr:
		return e.Op == token.ADD && (containsStringLit(e.X) || containsStringLit(e.Y))
	}
	return false
}

// isStringBuiltKey reports whether an index expression is built by
// string concatenation or fmt formatting.
func isStringBuiltKey(idx ast.Expr, fmtName string) bool {
	switch idx := idx.(type) {
	case *ast.BinaryExpr:
		return idx.Op == token.ADD && containsStringLit(idx)
	case *ast.CallExpr:
		return fmtCallName(idx, fmtName) != ""
	}
	return false
}
