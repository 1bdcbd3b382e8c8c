package analysis

import (
	"go/ast"
	"go/token"
)

// PagerPin enforces the pager pin contract (internal/pager package doc):
// the []byte page slice passed to a View/ViewCounted/Update callback is
// valid only for the duration of the call — the frame is unpinned when
// the callback returns and the buffer may be evicted and reused. The
// analyzer taints the page parameter and every no-copy alias of it
// (sub-slices, &p, composite literals and append-as-element containers
// holding it) and reports when a tainted value outlives the callback:
// assigned to a variable declared outside it, stored through a field,
// index or pointer whose base is not callback-local, sent on a channel,
// returned, or captured by a goroutine or escaping closure.
//
// The analysis is value-level and deliberately treats function-call
// results as clean: every in-tree decoder (uint128.FromBytes,
// string(...), binary reads) copies out of the page, so a call boundary
// is where the copy-out happens. A helper that returns a sub-slice of its argument
// would evade the check — keep decoding in the callback or copy first.
var PagerPin = &Analyzer{
	Name: "pagerpin",
	Doc:  "flag pager View/ViewCounted/Update callbacks that let the page buffer escape",
	Run:  runPagerPin,
}

// pagerEntryPoints are the pager.File methods that run a callback
// against a pinned frame. Matching is by method name plus callback
// shape; a same-named method elsewhere with a func([]byte) error
// argument is held to the same contract (suppress with //blas:ignore
// if it genuinely owns its buffer).
var pagerEntryPoints = map[string]bool{"View": true, "ViewCounted": true, "Update": true}

func runPagerPin(pass *Pass) error {
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !pagerEntryPoints[sel.Sel.Name] {
				return true
			}
			for _, arg := range call.Args {
				if fn, ok := arg.(*ast.FuncLit); ok && isPageCallback(fn.Type) {
					checkPageCallback(pass, sel.Sel.Name, fn)
				}
			}
			return true
		})
	}
	return nil
}

// isPageCallback reports whether ft's first parameter is a []byte.
func isPageCallback(ft *ast.FuncType) bool {
	if ft.Params == nil || len(ft.Params.List) == 0 {
		return false
	}
	at, ok := ft.Params.List[0].Type.(*ast.ArrayType)
	if !ok || at.Len != nil {
		return false
	}
	elt, ok := at.Elt.(*ast.Ident)
	return ok && elt.Name == "byte"
}

// escWalker runs the taint pass over one callback body.
type escWalker struct {
	pass   *Pass
	method string
	fn     *ast.FuncLit
	locals map[*ast.Object]bool // objects declared inside fn
	taint  map[*ast.Object]bool
	report bool // false: propagate only; true: emit diagnostics
	grew   bool // taint set grew this pass
}

func checkPageCallback(pass *Pass, method string, fn *ast.FuncLit) {
	w := &escWalker{pass: pass, method: method, fn: fn,
		locals: map[*ast.Object]bool{}, taint: map[*ast.Object]bool{}}

	// Seed: the []byte parameters. A parameter named _ cannot escape.
	for _, field := range fn.Type.Params.List {
		if at, ok := field.Type.(*ast.ArrayType); !ok || at.Len != nil {
			continue
		}
		for _, name := range field.Names {
			if name.Obj != nil {
				w.taint[name.Obj] = true
			}
		}
	}
	if len(w.taint) == 0 {
		return
	}

	// Every object declared within the callback is local to it.
	ast.Inspect(fn, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Obj == nil {
			return true
		}
		if decl, ok := id.Obj.Decl.(ast.Node); ok &&
			decl.Pos() >= fn.Pos() && decl.End() <= fn.End() {
			w.locals[id.Obj] = true
		}
		return true
	})

	// Propagate taint through local assignments to a fixpoint, then
	// report. The loop is bounded by the number of locals.
	for {
		w.grew = false
		w.walk(fn.Body)
		if !w.grew {
			break
		}
	}
	w.report = true
	w.walk(fn.Body)
}

func (w *escWalker) escape(pos token.Pos, how string) {
	if w.report {
		w.pass.Reportf(pos, "page buffer escapes the %s callback (%s); the slice is only valid until the callback returns — copy out instead", w.method, how)
	}
}

// tainted reports whether e may alias the page buffer.
func (w *escWalker) tainted(e ast.Expr) bool {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Obj != nil && w.taint[e.Obj]
	case *ast.ParenExpr:
		return w.tainted(e.X)
	case *ast.SliceExpr:
		return w.tainted(e.X)
	case *ast.StarExpr:
		return w.tainted(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && w.tainted(e.X)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if w.tainted(el) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// append is the one builtin that can smuggle an alias out:
		// append(xs, p) stores the slice header; append(bs, p...)
		// copies the bytes and is clean. Appending anything to a
		// tainted slice aliases its backing array.
		if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "append" && len(e.Args) > 0 {
			if w.tainted(e.Args[0]) {
				return true
			}
			if e.Ellipsis == token.NoPos {
				for _, a := range e.Args[1:] {
					if w.tainted(a) {
						return true
					}
				}
			}
		}
		// All other call results are treated as copies (see PagerPin doc).
		return false
	default:
		return false
	}
}

// baseIdent unwraps an lvalue chain (x.f[i].g) to its root identifier.
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

func (w *escWalker) markTaint(obj *ast.Object) {
	if obj != nil && !w.taint[obj] {
		w.taint[obj] = true
		w.grew = true
	}
}

// walk visits the callback body, propagating taint (and, on the report
// pass, flagging escapes).
func (w *escWalker) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			w.assign(n)
		case *ast.SendStmt:
			if w.tainted(n.Value) {
				w.escape(n.Pos(), "sent on a channel")
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if w.tainted(r) {
					w.escape(r.Pos(), "returned")
				}
			}
		case *ast.GoStmt:
			if w.referencesTaint(n.Call) {
				w.escape(n.Pos(), "captured by a goroutine")
			}
			return false // reported as a whole; don't re-flag inner statements
		case *ast.FuncLit:
			if n == w.fn {
				return true
			}
			// A nested closure referencing the buffer is safe only when
			// invoked in place; anything else may run after the frame is
			// unpinned.
			if !w.immediatelyInvoked(n) && w.referencesTaint(n) {
				w.escape(n.Pos(), "captured by a closure that may outlive the callback")
				return false
			}
		}
		return true
	})
}

// assign handles one assignment statement: taints locals bound to the
// buffer and flags stores that put an alias into longer-lived memory.
func (w *escWalker) assign(st *ast.AssignStmt) {
	for i, lhs := range st.Lhs {
		var rhs ast.Expr
		if len(st.Rhs) == len(st.Lhs) {
			rhs = st.Rhs[i]
		} else if len(st.Rhs) == 1 {
			rhs = st.Rhs[0] // multi-value: a call result, treated as a copy
		}
		if rhs == nil || !w.tainted(rhs) {
			continue
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			if l.Name == "_" {
				continue
			}
			if l.Obj != nil && w.locals[l.Obj] {
				w.markTaint(l.Obj)
			} else {
				w.escape(st.Pos(), "assigned to "+l.Name+", declared outside the callback")
			}
		default:
			// Store through a field, index or pointer: safe only when the
			// root of the lvalue is itself callback-local (then the alias
			// lives in a container we keep tracking).
			if base := baseIdent(lhs); base != nil && base.Obj != nil && w.locals[base.Obj] {
				w.markTaint(base.Obj)
			} else {
				w.escape(st.Pos(), "stored into memory that outlives the callback")
			}
		}
	}
}

// referencesTaint reports whether any identifier under n resolves to a
// tainted object.
func (w *escWalker) referencesTaint(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && id.Obj != nil && w.taint[id.Obj] {
			found = true
		}
		return !found
	})
	return found
}

// immediatelyInvoked reports whether fl appears as fn in fn(...) — an
// in-place call that cannot outlive the enclosing callback.
func (w *escWalker) immediatelyInvoked(fl *ast.FuncLit) bool {
	invoked := false
	ast.Inspect(w.fn, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == fl {
			invoked = true
		}
		return !invoked
	})
	return invoked
}
