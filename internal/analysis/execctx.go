package analysis

import (
	"go/ast"
	"strings"
)

// ExecCtx enforces the per-query counter-threading discipline: the
// execution counters that feed internal/obs (pages read, records
// decoded, index probes) flow through a *relstore.ExecContext handed to
// each entry point, never through package-level state. Two rules:
//
//  1. In package relstore, an exported method on *Relation whose name
//     starts with Scan or is Get, or the Open or Estimate method of a
//     Selection (on a value or a pointer receiver, whatever it
//     returns), must take a *ExecContext as its first parameter —
//     these are the measured entry points, and a counter recorded
//     anywhere else is invisible to the query that caused it.
//  2. Packages relstore, pbtree and pager must not declare
//     package-level counter state: variables of an atomic type, of a
//     Counters type, or of ExecContext type. A global counter is
//     shared across concurrent queries and corrupts per-query
//     attribution (and the resident blasd server runs many queries at
//     once).
var ExecCtx = &Analyzer{
	Name: "execctx",
	Doc:  "require *relstore.ExecContext threading on measured entry points; ban package-level counter state",
	Run:  runExecCtx,
}

// execCtxPackages are the packages rule 2 applies to.
var execCtxPackages = map[string]bool{"relstore": true, "pbtree": true, "pager": true}

func runExecCtx(pass *Pass) error {
	name := pass.Pkg.Name
	for _, f := range pass.Files() {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if name == "relstore" {
					checkEntryPoint(pass, d)
				}
			case *ast.GenDecl:
				if execCtxPackages[name] {
					checkGlobals(pass, d)
				}
			}
		}
	}
	return nil
}

// isMeasuredEntryPoint reports whether fd is an exported *Relation or
// Selection method that records execution counters.
func isMeasuredEntryPoint(fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) != 1 || !fd.Name.IsExported() {
		return false
	}
	recv := fd.Recv.List[0].Type
	if star, ok := recv.(*ast.StarExpr); ok {
		recv = star.X
	}
	id, ok := recv.(*ast.Ident)
	if !ok {
		return false
	}
	n := fd.Name.Name
	switch id.Name {
	case "Relation":
		return strings.HasPrefix(n, "Scan") || n == "Get"
	case "Selection":
		return n == "Open" || n == "Estimate"
	}
	return false
}

// checkEntryPoint verifies the first parameter is *ExecContext.
func checkEntryPoint(pass *Pass, fd *ast.FuncDecl) {
	if !isMeasuredEntryPoint(fd) {
		return
	}
	params := fd.Type.Params
	if params == nil || len(params.List) == 0 {
		pass.Reportf(fd.Name.Pos(), "%s records execution counters but takes no *ExecContext; thread the per-query context as the first parameter", fd.Name.Name)
		return
	}
	if !isExecContextPtr(params.List[0].Type) {
		pass.Reportf(params.List[0].Pos(), "%s must take *ExecContext as its first parameter so counters attribute to the running query", fd.Name.Name)
	}
}

// isExecContextPtr matches *ExecContext (same package) and
// *relstore.ExecContext (cross-package).
func isExecContextPtr(t ast.Expr) bool {
	star, ok := t.(*ast.StarExpr)
	if !ok {
		return false
	}
	switch x := star.X.(type) {
	case *ast.Ident:
		return x.Name == "ExecContext"
	case *ast.SelectorExpr:
		return x.Sel.Name == "ExecContext"
	}
	return false
}

// checkGlobals flags package-level vars whose declared type or
// initializer names counter state.
func checkGlobals(pass *Pass, d *ast.GenDecl) {
	if d.Tok.String() != "var" {
		return
	}
	for _, spec := range d.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if why := counterStateType(vs.Type); why != "" {
			pass.Reportf(vs.Pos(), "package-level %s is shared counter state; counters must live in a per-query *relstore.ExecContext", why)
			continue
		}
		for _, v := range vs.Values {
			if why := counterStateExpr(v); why != "" {
				pass.Reportf(vs.Pos(), "package-level %s is shared counter state; counters must live in a per-query *relstore.ExecContext", why)
				break
			}
		}
	}
}

// counterStateType classifies a declared type as counter state.
func counterStateType(t ast.Expr) string {
	switch t := t.(type) {
	case nil:
		return ""
	case *ast.StarExpr:
		return counterStateType(t.X)
	case *ast.ArrayType:
		return counterStateType(t.Elt)
	case *ast.Ident:
		if strings.Contains(t.Name, "Counters") || t.Name == "ExecContext" {
			return t.Name
		}
	case *ast.SelectorExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			if id.Name == "atomic" {
				return "atomic." + t.Sel.Name
			}
			if strings.Contains(t.Sel.Name, "Counters") || t.Sel.Name == "ExecContext" {
				return id.Name + "." + t.Sel.Name
			}
		}
	}
	return ""
}

// counterStateExpr classifies an initializer expression as counter
// state (covers `var c = relstore.NewExecContext()` style).
func counterStateExpr(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.UnaryExpr:
		return counterStateExpr(e.X)
	case *ast.CompositeLit:
		return counterStateType(e.Type)
	case *ast.CallExpr:
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "NewExecContext") {
			return sel.Sel.Name + "()"
		}
		if id, ok := e.Fun.(*ast.Ident); ok && strings.HasPrefix(id.Name, "NewExecContext") {
			return id.Name + "()"
		}
	}
	return ""
}
